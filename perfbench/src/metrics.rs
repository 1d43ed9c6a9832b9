//! What the benchmark measures: the workloads, the end-to-end metrics with
//! their bounds, and the per-layer metrics with the end-to-end metric and
//! workload each should move. A test keeps `BENCHMARK.json` equal to these
//! tables.

/// How long one run measures, in seconds (`--seconds` of the driver).
pub const RUN_SECONDS: u32 = 10;

pub struct Workload {
    pub name: &'static str,
    /// One line: why it is here and which layer it isolates or bypasses.
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "sieve_coarse",
        why: "Fig. 16 for real: woven PipeRMI sieve vs the hand-coded RMI pipeline; kernel and large-Pack codec dominate, so framework-layer changes should predict no change here (the bypass workload)",
    },
    Workload {
        name: "sort_dc",
        why: "nested fork/join over thread-per-call through the divide-and-conquer skeleton with Pack split/merge: the hand-off and value-passing workload",
    },
    Workload {
        name: "heat_sync",
        why: "single-threaded heartbeat, six synchronous join points per iteration and almost no kernel: weave dispatch and the heartbeat skeleton are nearly all of the time",
    },
    Workload {
        name: "mandel_pool_fine",
        why: "farm over the work-stealing pool with one image row per pack: the only workload on concurrency::pool and the farm's batch submission, with tiny payloads",
    },
    Workload {
        name: "remote_sync",
        why: "replied remote calls through the RMI proxy with no kernel, process confined to one CPU: marshal, route, serve, reply rendezvous, unmarshal",
    },
    Workload {
        name: "weave_calls",
        why: "one thread calling through three pass-through aspects and a recording metrics aspect: the weaver's read path (snapshot load, chain-cache hit, Args/Value, advice hops)",
    },
    Workload {
        name: "weave_churn",
        why: "weave_calls' loop while a fourth aspect is plugged or unplugged every 4 calls: same layer used differently, so a read-path gain bought with a slower plug shows as a loss",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub what: &'static str,
}

// Every time is taken at nominal host speed (see `timing::calibrated`): this
// shared host's speed moves by up to 1.7x over minutes, so no bound of at most
// 25% holds for a time as measured. The times as measured are printed too.
//
// The share of failed repetitions is not declared, because a declared metric
// may never read 0 and a time that reads the same on every run is rejected:
// it is printed as `failed_share`, and is the result line's `failed` over
// `attempted`.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.20,
        what: "median wall-clock of one woven run (call to a validated solution) at nominal host speed, 40 or more runs after 2 warm-ups",
    },
    EndToEnd {
        name: "wall_ms_p75",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "75th percentile of the same times: at 40 or more runs, 10 or more lie beyond it",
    },
    EndToEnd {
        name: "woven_over_reference",
        unit: "ratio",
        better: "lower",
        bound: 0.20,
        what: "median over the run pairs of the woven run's wall-clock over that of the reference run next to it; order within a pair drawn from the seed",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "median of 11 to 201 set-ups (as many as fit in a tenth of the run) at nominal host speed: inputs from the seed, expected output, stack, fabric and executor; warm-ups are outside",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Which end-to-end metric it should move, on which workload. Unless it
    /// names `sieve_coarse`, the prediction there is "no change".
    pub moves: &'static str,
}

const fn cost(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer { name, unit, better: "lower", moves }
}

const WEAVE_READ: &str = "wall_ms_p50 on weave_calls, heat_sync";
const WEAVE_CHURN: &str = "wall_ms_p50, woven_over_reference on weave_churn";
const WEAVE_PACK: &str = "wall_ms_p50 on sieve_coarse, sort_dc; setup_s everywhere";
const THREADS: &str = "wall_ms_p50 on sort_dc, sieve_coarse";
const POOL: &str = "wall_ms_p50 on mandel_pool_fine only";
const POOL_TAIL: &str = "wall_ms_p75 on mandel_pool_fine (parks and wake-ups are the tail)";
const WIRE_SMALL: &str = "wall_ms_p50, woven_over_reference on remote_sync";
const WIRE_LARGE: &str = "wall_ms_p50 on sieve_coarse";
const REMOTE: &str = "wall_ms_p50, woven_over_reference on remote_sync";
const SETUP: &str = "setup_s; wall_ms_p50 on weave_calls if an observer is plugged";
const NONE: &str = "none of the seven (regeneration time of Figs 16/17 only)";
const KERNEL: &str =
    "wall_ms_p50 on sieve_coarse (most of it), sort_dc; both sides of every woven_over_reference";
const SPANS: &str = "the workload's own wall_ms_p50: its share of the span-covered thread time";

pub const PER_LAYER: [PerLayer; 69] = [
    // weave: probes
    cost("weave.joinpoint_ns.a0", "ns", WEAVE_READ),
    cost("weave.joinpoint_ns.a1", "ns", WEAVE_READ),
    cost("weave.joinpoint_ns.a3", "ns", WEAVE_READ),
    cost("weave.joinpoint_ns.a8", "ns", WEAVE_READ),
    cost("weave.advice_hop_ns", "ns", WEAVE_READ),
    cost("weave.value_roundtrip_ns", "ns", WEAVE_READ),
    cost("weave.metrics_record_ns", "ns", WEAVE_READ),
    cost("weave.allocs_per_joinpoint", "count", WEAVE_READ),
    cost("weave.plug_unplug_ns", "ns", WEAVE_CHURN),
    cost("weave.chain_miss_ns", "ns", WEAVE_CHURN),
    cost("weave.construct_ns", "ns", WEAVE_PACK),
    cost("weave.pack_split_ns_per_chunk", "ns", WEAVE_PACK),
    cost("weave.pack_concat_us_per_mb", "us", WEAVE_PACK),
    // concurrency: probes
    cost("concurrency.spawn_ns_per_task.thread_per_call", "ns", THREADS),
    cost("concurrency.spawn_ns_per_task.pool", "ns", POOL),
    cost("concurrency.batch_ns_per_task.pool", "ns", POOL),
    cost("concurrency.future_roundtrip_us.thread_per_call", "us", THREADS),
    cost("concurrency.future_roundtrip_us.pool", "us", POOL),
    cost("concurrency.monitor_ns", "ns", "wall_ms_p50 on mandel_pool_fine, sort_dc"),
    cost("concurrency.handoff_us_p50.thread_per_call", "us", THREADS),
    cost("concurrency.handoff_us_p50.pool", "us", POOL_TAIL),
    // middleware: probes
    cost("middleware.encode_ns_small", "ns", WIRE_SMALL),
    cost("middleware.decode_ns_small", "ns", WIRE_SMALL),
    cost("middleware.encode_us_per_mb", "us", WIRE_LARGE),
    cost("middleware.decode_us_per_mb", "us", WIRE_LARGE),
    cost("middleware.bytes_per_call", "count", WIRE_SMALL),
    cost("middleware.sync_call_us", "us", REMOTE),
    cost("middleware.allocs_per_remote_call", "count", REMOTE),
    cost("middleware.construct_remote_us", "us", "setup_s on remote_sync, sieve_coarse"),
    cost("middleware.nameserver_lookup_ns", "ns", "setup_s on remote_sync, sieve_coarse"),
    cost("middleware.oneway_call_ns", "ns", NONE),
    cost("middleware.packed_oneway_call_ns", "ns", NONE),
    // skeletons: probes over a method whose body is empty
    cost("skeletons.farm_us_per_pack.empty", "us", "wall_ms_p50 on mandel_pool_fine"),
    cost("skeletons.dynamic_farm_us_per_pack.empty", "us", NONE),
    cost("skeletons.pipeline_us_per_pack_stage.empty", "us", "wall_ms_p50 on sieve_coarse"),
    cost("skeletons.heartbeat_us_per_iter.empty", "us", "wall_ms_p50 on heat_sync"),
    cost("skeletons.dc_us_per_divide.empty", "us", "wall_ms_p50 on sort_dc"),
    // core: probes
    cost("core.stack_build_us", "us", SETUP),
    cost("core.stack_swap_us", "us", SETUP),
    cost("core.calllog_record_ns", "ns", SETUP),
    cost("core.autotune_observe_ns", "ns", SETUP),
    // cluster: probes
    cost("cluster.trace_capture_ratio", "ratio", NONE),
    cost("cluster.simulate_us_per_task", "us", NONE),
    // apps: the kernels called directly
    cost("apps.sieve_ns_per_candidate", "ns", KERNEL),
    cost("apps.mandel_ns_per_pixel_iter", "ns", KERNEL),
    cost("apps.heat_ns_per_cell_step", "ns", KERNEL),
    cost("apps.sort_merge_ns_per_elem", "ns", KERNEL),
    // the workload's own traced run: busy self time per layer and run
    cost("weave.self_ms", "ms", SPANS),
    cost("skeletons.self_ms", "ms", SPANS),
    cost("concurrency.self_ms", "ms", SPANS),
    cost("middleware.self_ms", "ms", SPANS),
    cost("apps.self_ms", "ms", SPANS),
    cost("bench.self_ms", "ms", "nothing: the benchmark's own glue inside the spans"),
    cost("trace.wait_ms", "ms", "wall_ms_p75 on sieve_coarse, sort_dc, mandel_pool_fine: time threads spent inside spans without running"),
    cost("trace.covered_ms", "ms", "the sum the self times and the wait must add up to"),
    cost("trace.unreconciled_share", "ratio", "nothing: above 0.10 the layer rows do not explain the run"),
    cost("trace.overhead_ratio", "ratio", "nothing: traced over untraced median wall-clock"),
    // the workload's own traced run: counts per run
    cost("weave.joinpoints", "count", WEAVE_READ),
    cost("concurrency.tasks", "count", "wall_ms_p50 on sort_dc, sieve_coarse, mandel_pool_fine"),
    cost("concurrency.steals", "count", POOL_TAIL),
    cost("concurrency.parks", "count", POOL_TAIL),
    cost("concurrency.wakeups", "count", POOL_TAIL),
    cost("middleware.calls", "count", REMOTE),
    cost("middleware.retries", "count", "failed operations on remote_sync, sieve_coarse"),
    cost("middleware.timeouts", "count", "failed operations on remote_sync, sieve_coarse"),
    cost("skeletons.packs_issued", "count", "wall_ms_p50 on mandel_pool_fine"),
    cost("skeletons.divides", "count", "wall_ms_p50 on sort_dc"),
    cost("skeletons.redispatched", "count", "failed operations on mandel_pool_fine"),
    cost("trace.reps", "count", "nothing: traced runs the per-run figures are averaged over"),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn quoted(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// The text of `BENCHMARK.json`.
    fn benchmark_json() -> String {
        let command = [
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "perfbench/Cargo.toml",
            "--",
        ];
        let list = |items: Vec<String>| items.join(",\n    ");
        format!(
            "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
            command.iter().map(|c| quoted(c)).collect::<Vec<_>>().join(", "),
            list(WORKLOADS
                .iter()
                .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quoted(w.name), quoted(w.why)))
                .collect()),
            list(END_TO_END
                .iter()
                .map(|m| format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    quoted(m.name),
                    quoted(m.unit),
                    quoted(m.better),
                    m.bound
                ))
                .collect()),
            list(PER_LAYER
                .iter()
                .map(|m| format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    quoted(m.name),
                    quoted(m.unit),
                    quoted(m.better)
                ))
                .collect()),
        )
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(well_formed(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn benchmark_json_on_disk_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let generated = benchmark_json();
        assert!(on_disk == generated, "BENCHMARK.json should read:\n{generated}");
    }
}
