//! `weavepar-demo` — drive any case-study application from the command line.
//!
//! ```text
//! weavepar-demo sieve  [--variant farm-rmi] [--max 1000000] [--filters 4] [--packs 50] [--nodes 7]
//! weavepar-demo mandel [--width 64] [--height 32] [--iters 500] [--workers 4] [--dynamic]
//! weavepar-demo heat   [--len 60] [--iters 2000] [--workers 4]
//! weavepar-demo sort   [--n 200000] [--threshold 10000] [--concurrent]
//! weavepar-demo figures [--max 2000000] [--packs 50]
//! ```
//!
//! `figures` regenerates the paper's §6 evaluation (Figures 16 and 17,
//! Table 1) on stdout: see [`figures`].

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;

use weavepar_apps::heat::{solve_heartbeat, solve_sequential};
use weavepar_apps::mandel::{render_dynamic, render_farmed, render_sequential};
use weavepar_apps::sieve::{build_sieve, run_sieve, sequential_sieve, SieveConfig};
use weavepar_apps::sort::{dc_pool_size, sort_divide_conquer};

// Beside the binary, not in the `weavepar_apps` library: nothing else calls
// it. A crate root looks for its modules next to itself, and this one stays
// `weavepar-demo.rs` (the ids of its tests name the file): hence the path.
#[path = "weavepar-demo/figures.rs"]
mod figures;

/// A sub-command, and the options it knows.
#[derive(Clone, Copy)]
enum Command {
    Sieve,
    Mandel,
    Heat,
    Sort,
    Figures,
}

impl Command {
    fn named(name: &str) -> Option<Self> {
        Some(match name {
            "sieve" => Command::Sieve,
            "mandel" => Command::Mandel,
            "heat" => Command::Heat,
            "sort" => Command::Sort,
            "figures" => Command::Figures,
            _ => return None,
        })
    }

    /// The `--flag value` names and the bare `--switch` names it accepts.
    fn known(self) -> (&'static [&'static str], &'static [&'static str]) {
        match self {
            Command::Sieve => (&["variant", "max", "filters", "packs", "nodes"], &[]),
            Command::Mandel => (&["width", "height", "iters", "workers", "packs"], &["dynamic"]),
            Command::Heat => (&["len", "iters", "workers"], &[]),
            Command::Sort => (&["n", "threshold"], &["concurrent"]),
            Command::Figures => (&["max", "packs"], &[]),
        }
    }
}

#[derive(Debug)]
struct Options {
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

impl Options {
    /// Parse a sub-command's arguments. Anything it does not know — an
    /// unknown option, a flag without its value, a stray positional — is an
    /// error, never skipped.
    fn parse(command: Command, args: &[String]) -> Result<Self, String> {
        let (flags, switches) = command.known();
        let mut parsed = Options { flags: HashMap::new(), switches: Vec::new() };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument `{arg}`"));
            };
            if switches.contains(&name) {
                parsed.switches.push(name.to_string());
            } else if flags.contains(&name) {
                match args.next() {
                    Some(value) if !value.starts_with("--") => {
                        parsed.flags.insert(name.to_string(), value.clone());
                    }
                    _ => return Err(format!("--{name} needs a value")),
                }
            } else {
                return Err(format!("unknown option `{arg}`"));
            }
        }
        Ok(parsed)
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
        "usage: weavepar-demo <sieve|mandel|heat|sort|figures> [options]\n\
         \n\
         sieve  --variant <seq-pipe|farm-threads|pipe-rmi|farm-rmi|farm-drmi|farm-mpp>\n\
                --max N --filters N --packs N --nodes N\n\
         mandel --width N --height N --iters N --workers N --packs N [--dynamic]\n\
         heat   --len N --iters N --workers N\n\
         sort   --n N --threshold N [--concurrent]\n\
         figures --max N --packs N"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().and_then(|name| Command::named(name)) else {
        return usage();
    };
    let opts = match Options::parse(command, &argv[1..]) {
        Ok(opts) => opts,
        Err(why) => {
            eprintln!("{why}");
            usage();
            return ExitCode::from(2);
        }
    };

    match command {
        Command::Sieve => {
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
        Command::Mandel => {
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
        Command::Heat => {
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
        Command::Sort => {
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
            let mut expect = xs.clone();
            expect.sort_unstable();
            let t0 = Instant::now();
            match sort_divide_conquer(xs, threshold, concurrent) {
                Ok(sorted) => {
                    let elapsed = t0.elapsed();
                    // Item for item: sortedness and length alone would pass
                    // a result that duplicates one item and drops another.
                    let ok = sorted == expect;
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
        Command::Figures => match figures::run(opts.get("max", 2_000_000), opts.get("packs", 50)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("figures failed: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(command: &str, line: &str) -> Result<Options, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        Options::parse(Command::named(command).unwrap(), &args)
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        let unknown = parse("sieve", "--maxx 10").unwrap_err();
        assert!(unknown.contains("--maxx"), "{unknown}");
        let last = parse("sieve", "--max").unwrap_err();
        assert!(last.contains("--max needs a value"), "{last}");
        let followed = parse("sieve", "--max --filters 4").unwrap_err();
        assert!(followed.contains("--max needs a value"), "{followed}");
        let stray = parse("sort", "5000").unwrap_err();
        assert!(stray.contains("5000"), "{stray}");
        // A switch of one sub-command is unknown to another.
        assert!(parse("heat", "--dynamic").is_err());
        let figures = parse("figures", "--max 1000 --packs").unwrap_err();
        assert!(figures.contains("--packs needs a value"), "{figures}");
        assert!(parse("figures", "--filters 4").is_err());
    }

    #[test]
    fn every_sub_command_accepts_its_own_options() {
        let sieve = parse("sieve", "--variant farm-rmi --max 1000 --filters 4 --packs 8 --nodes 3");
        assert_eq!(sieve.unwrap().get("max", 0u64), 1000);
        let mandel =
            parse("mandel", "--width 8 --height 4 --iters 9 --workers 2 --packs 4 --dynamic");
        assert!(mandel.unwrap().has("dynamic"));
        assert_eq!(parse("heat", "--len 60 --iters 5 --workers 2").unwrap().get("len", 0u64), 60);
        let sort = parse("sort", "--n 100 --threshold 10 --concurrent").unwrap();
        assert!(sort.has("concurrent") && sort.get("threshold", 0usize) == 10);
        assert!(!parse("sort", "").unwrap().has("concurrent"));
        let figures = parse("figures", "--max 200000 --packs 10").unwrap();
        assert!(figures.get("max", 0u64) == 200_000 && figures.get("packs", 0usize) == 10);
    }
}
