//! `weavepar-demo` — drive any case-study application from the command line.
//!
//! ```text
//! weavepar-demo sieve  [--variant farm-rmi] [--max 1000000] [--filters 4] [--packs 50] [--nodes 7]
//! weavepar-demo mandel [--width 64] [--height 32] [--iters 500] [--workers 4] [--dynamic]
//! weavepar-demo heat   [--len 60] [--iters 2000] [--workers 4]
//! weavepar-demo heat2d [--width 16] [--height 16] [--iters 200] [--workers 4]
//! weavepar-demo sort   [--n 200000] [--threshold 10000] [--concurrent]
//! ```

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;

use weavepar_apps::heat::{solve_heartbeat, solve_sequential};
use weavepar_apps::heat2d::{solve2d_heartbeat, solve2d_sequential};
use weavepar_apps::mandel::{render_dynamic, render_farmed, render_sequential};
use weavepar_apps::sieve::{build_sieve, run_sieve, sequential_sieve, SieveConfig};
use weavepar_apps::sort::{dc_pool_size, sort_divide_conquer};

struct Options {
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

impl Options {
    fn parse(args: &[String]) -> Self {
        let mut flags = HashMap::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            if let Some(name) = arg.strip_prefix("--") {
                if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                    flags.insert(name.to_string(), args[i + 1].clone());
                    i += 2;
                } else {
                    switches.push(name.to_string());
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        Options { flags, switches }
    }

    /// The value of `--name`, or `default` when the flag is absent. A value
    /// that does not parse is an error (usage text, exit code 2), never a
    /// silent fall-back to the default.
    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.flags.get(name) {
            None => default,
            Some(raw) => raw.parse().unwrap_or_else(|_| {
                eprintln!("invalid value `{raw}` for --{name}");
                usage();
                std::process::exit(2)
            }),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: weavepar-demo <sieve|mandel|heat|heat2d|sort> [options]\n\
         \n\
         sieve  --variant <seq-pipe|farm-threads|pipe-rmi|farm-rmi|farm-drmi|farm-mpp>\n\
                --max N --filters N --packs N --nodes N\n\
         mandel --width N --height N --iters N --workers N --packs N [--dynamic]\n\
         heat   --len N --iters N --workers N\n\
         heat2d --width N --height N --iters N --workers N\n\
         sort   --n N --threshold N [--concurrent]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        return usage();
    };
    let opts = Options::parse(&argv[1..]);

    match command.as_str() {
        "sieve" => {
            let max: u64 = opts.get("max", 1_000_000);
            let filters: usize = opts.get("filters", 4);
            let variant = opts.flags.get("variant").map(String::as_str).unwrap_or("farm-threads");
            let mut config = match variant {
                "seq-pipe" => SieveConfig::sequential_pipeline(filters),
                "farm-threads" => SieveConfig::farm_threads(filters),
                "pipe-rmi" => SieveConfig::pipe_rmi(filters),
                "farm-rmi" => SieveConfig::farm_rmi(filters),
                "farm-drmi" => SieveConfig::farm_drmi(filters),
                "farm-mpp" => SieveConfig::farm_mpp(filters),
                other => {
                    eprintln!("unknown sieve variant `{other}`");
                    return usage();
                }
            };
            config.packs = opts.get("packs", config.packs);
            config.nodes = opts.get("nodes", config.nodes);
            let run = build_sieve(config);
            let t0 = Instant::now();
            match run_sieve(&run, max) {
                Ok(primes) => {
                    let elapsed = t0.elapsed();
                    let ok = primes == sequential_sieve(max);
                    println!(
                        "{}: {} primes <= {max} in {elapsed:?} ({})",
                        config.label(),
                        primes.len(),
                        if ok { "validated" } else { "MISMATCH" }
                    );
                    println!("stack: {}", run.stack.describe());
                    if ok {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("sieve failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "mandel" => {
            let width: u64 = opts.get("width", 64);
            let height: u64 = opts.get("height", 32);
            let iters: u64 = opts.get("iters", 500);
            let workers: usize = opts.get("workers", 4);
            let packs: usize = opts.get("packs", workers * 2);
            let t0 = Instant::now();
            let result = if opts.has("dynamic") {
                render_dynamic(width, height, iters, workers, packs)
            } else {
                render_farmed(width, height, iters, workers, packs, true)
            };
            match result {
                Ok(image) => {
                    let elapsed = t0.elapsed();
                    let ok = image == render_sequential(width, height, iters);
                    println!(
                        "mandel {width}x{height}@{iters}: {} pixels in {elapsed:?} ({})",
                        image.len(),
                        if ok { "validated" } else { "MISMATCH" }
                    );
                    if ok {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("mandel failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "heat" => {
            let len: u64 = opts.get("len", 60);
            let iters: u64 = opts.get("iters", 2_000);
            let workers: usize = opts.get("workers", 4);
            match solve_heartbeat(len, 0.0, 100.0, 0.0, iters, workers) {
                Ok(profile) => {
                    let reference = solve_sequential(len, 0.0, 100.0, 0.0, iters);
                    let max_err = profile
                        .iter()
                        .zip(&reference)
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0f64, f64::max);
                    println!(
                        "heat len={len} iters={iters} workers={workers}: max deviation {max_err:.2e}"
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("heat failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "heat2d" => {
            let width: u64 = opts.get("width", 16);
            let height: u64 = opts.get("height", 16);
            let iters: u64 = opts.get("iters", 200);
            let workers: usize = opts.get("workers", 4);
            match solve2d_heartbeat(width, height, 0.0, 10.0, 0.0, iters, workers) {
                Ok(grid) => {
                    let reference = solve2d_sequential(width, height, 0.0, 10.0, 0.0, iters);
                    let max_err = grid
                        .iter()
                        .zip(&reference)
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0f64, f64::max);
                    println!(
                        "heat2d {width}x{height} iters={iters} workers={workers}: max deviation {max_err:.2e}"
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("heat2d failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "sort" => {
            let n: usize = opts.get("n", 200_000);
            let threshold: usize = opts.get("threshold", 10_000);
            let concurrent = opts.has("concurrent");
            let mut seed = 2026u64;
            let xs: Vec<u64> = (0..n)
                .map(|_| {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    seed >> 33
                })
                .collect();
            let t0 = Instant::now();
            match sort_divide_conquer(xs.clone(), threshold, concurrent) {
                Ok(sorted) => {
                    let elapsed = t0.elapsed();
                    let ok = sorted.windows(2).all(|w| w[0] <= w[1]) && sorted.len() == xs.len();
                    println!(
                        "sort n={n} threshold={threshold} concurrent={concurrent}: {elapsed:?} ({})",
                        if ok { "validated" } else { "MISMATCH" }
                    );
                    if concurrent {
                        println!("executor: work-stealing pool, {} workers", dc_pool_size());
                    }
                    if ok {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("sort failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
