//! Every call into the repository sits in this module, so that a change of
//! the repository's public surface is absorbed here and nowhere else. It uses
//! only `weavepar::prelude::*`, `weaveable!`/`args!`/`ret!`,
//! `aspect::precedence`, `wire::{to_bytes, from_bytes}`, `trace::Recorder`,
//! `cluster::simulate` and the `weavepar_apps` entry points of the workloads.

mod boundary;
pub mod probes;
mod programs;

use crate::workload::{self, EndToEnd, Plan, Traced};

fn err(e: weavepar::prelude::WeaveError) -> String {
    e.to_string()
}

/// Call `$run(<program>::setup, $plan)` for the program of workload `$name`.
macro_rules! with_program {
    ($name:expr, $run:path, $plan:expr) => {
        match $name {
            "sieve_coarse" => $run(programs::SieveCoarse::setup, $plan),
            "sort_dc" => $run(programs::SortDc::setup, $plan),
            "heat_sync" => $run(programs::HeatSync::setup, $plan),
            "mandel_pool_fine" => $run(programs::MandelPoolFine::setup, $plan),
            "remote_sync" => $run(programs::RemoteSync::setup, $plan),
            "weave_calls" => $run(programs::WeaveCalls::setup, $plan),
            "weave_churn" => $run(programs::WeaveChurn::setup, $plan),
            other => Err(format!("unknown workload `{other}`")),
        }
    };
}

/// Run `name`'s untraced loop.
pub fn end_to_end(name: &str, plan: &Plan) -> Result<EndToEnd, String> {
    with_program!(name, workload::end_to_end, plan)
}

/// Run `name`'s traced loop.
pub fn traced(name: &str, plan: &Plan) -> Result<Traced, String> {
    with_program!(name, workload::traced, plan)
}
