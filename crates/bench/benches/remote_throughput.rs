//! Remote-call throughput for the middleware fast path (§4.3/§4.4, PR 3).
//!
//! Run with: `cargo bench -p weavepar-bench --bench remote_throughput`
//!
//! Two workloads against an in-process fabric node, at 1/2/4/8 client
//! threads:
//!
//! * `oneway` — each thread fires a burst of oneway `bump` calls at its own
//!   remote object, then synchronises with one replied call (FIFO drain).
//!   The configurations form an ablation ladder, each adding one layer of
//!   the fast path on top of the previous:
//!   * `string_fresh` — the method id resolved from its class and method
//!     names on every call, and a fresh heap buffer per frame;
//!   * `interned_fresh` — cached `MethodId`, still fresh buffers (isolates
//!     identifier interning);
//!   * `interned_pooled` — cached id + `BufPool` frames (isolates buffer
//!     pooling); this is `unpacked` in the gain column;
//!   * `packed` — cached id + pooled frames + `call_batch` packs of 64 calls
//!     per `Request::CallPack` (isolates wire packing). PR 3's bar was
//!     packed ≥ 2× the unpacked (`interned_pooled`) path at 8 threads; the
//!     node mailbox no longer pays a wake-up for a node thread that is
//!     already awake, which made the *unpacked* path ≈ 1.8× cheaper, so the
//!     ratio now reads ≈ 1.6× (EXPERIMENTS.md).
//! * `sync` — replied calls, the same `InProcFabric::call` with and without
//!   the hand-off to the node thread:
//!   * `queued` — under a deadline far too long to fire. A call with a
//!     deadline is never served inline, so every call queues and parks on a
//!     pooled reply slot: two thread switches per call;
//!   * `unbounded` — under `CallPolicy::unbounded()`, what the distribution
//!     aspects use by default: served on the caller's own thread whenever the
//!     node is idle, queued otherwise. At one client thread every call is
//!     served inline; with more, callers that find the serve token taken
//!     queue (see EXPERIMENTS.md, "Remote-call fast path").
//!
//! Hand-rolled harness (same contract as `executor_throughput`): writes a
//! machine-readable `BENCH_remote.json` at the workspace root with the
//! median calls/sec per (workload, config, threads) cell. With
//! `WEAVEPAR_BENCH_QUICK=1` it runs a tiny smoke iteration and skips the
//! JSON (used by ci.sh).
//!
//! The container has one or two cores (`nproc` is written into the JSON):
//! client and server threads share them, so numbers measure per-call path
//! cost, not parallel speedup.

use std::time::{Duration, Instant};

use weavepar::distribution::{
    BytesMut, CallPolicy, InProcFabric, MarshalRegistry, MethodId, RemoteRef,
};
use weavepar::{args, weaveable};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const PACK: usize = 64;

struct Counter {
    hits: u64,
}

weaveable! {
    class Counter as CounterProxy {
        fn new() -> Self { Counter { hits: 0 } }
        fn bump(&mut self, x: u64) {
            self.hits += x;
        }
        fn total(&mut self) -> u64 {
            self.hits
        }
    }
}

struct Harness {
    fabric: std::sync::Arc<InProcFabric>,
    refs: Vec<RemoteRef>,
    bump: MethodId,
    total: MethodId,
}

impl Harness {
    /// A fresh single-node fabric with one Counter per client thread.
    fn new(threads: usize) -> Self {
        let m = MarshalRegistry::new();
        m.register::<(), ()>("Counter", "new");
        m.register::<(u64,), ()>("Counter", "bump");
        m.register::<(), u64>("Counter", "total");
        let fabric = InProcFabric::new(1, m);
        fabric.register_class::<Counter>();
        let refs = (0..threads)
            .map(|_| {
                let ctor = fabric.marshal().encode_args("Counter", "new", &args![]).unwrap();
                fabric.construct_on(0, "Counter", ctor).unwrap()
            })
            .collect();
        let bump = fabric.marshal().method_id("Counter", "bump").unwrap();
        let total = fabric.marshal().method_id("Counter", "total").unwrap();
        Harness { fabric, refs, bump, total }
    }

    /// Replied `total` on `r` — drains the node's FIFO queue up to here and
    /// returns the server-side hit count.
    fn drain(&self, r: RemoteRef) -> u64 {
        let mut buf = self.fabric.buffers().take();
        self.fabric.marshal().encode_args_id(self.total, &args![], &mut buf).unwrap();
        let policy = CallPolicy::unbounded();
        let reply = self.fabric.call(r, self.total, buf.freeze(), &policy).unwrap();
        let ret = self.fabric.marshal().decode_ret_id(self.total, &mut reply.clone()).unwrap();
        self.fabric.buffers().recycle(reply);
        *ret.downcast::<u64>().unwrap()
    }

    /// One timed round of the oneway workload; returns calls/sec.
    fn oneway_round(&self, config: OnewayConfig, calls: usize) -> f64 {
        let start = Instant::now();
        std::thread::scope(|s| {
            for &r in &self.refs {
                s.spawn(move || {
                    let f = &self.fabric;
                    match config {
                        OnewayConfig::StringFresh => {
                            for _ in 0..calls {
                                let args = f
                                    .marshal()
                                    .encode_args("Counter", "bump", &args![1u64])
                                    .unwrap();
                                let bump = f.marshal().method_id("Counter", "bump").unwrap();
                                f.send(r, bump, args).unwrap();
                            }
                        }
                        OnewayConfig::InternedFresh => {
                            for _ in 0..calls {
                                let mut buf = BytesMut::with_capacity(32);
                                f.marshal()
                                    .encode_args_id(self.bump, &args![1u64], &mut buf)
                                    .unwrap();
                                f.send(r, self.bump, buf.freeze()).unwrap();
                            }
                        }
                        OnewayConfig::InternedPooled => {
                            for _ in 0..calls {
                                let mut buf = f.buffers().take();
                                f.marshal()
                                    .encode_args_id(self.bump, &args![1u64], &mut buf)
                                    .unwrap();
                                f.send(r, self.bump, buf.freeze()).unwrap();
                            }
                        }
                        OnewayConfig::Packed => {
                            let mut shipped = 0;
                            while shipped < calls {
                                let n = PACK.min(calls - shipped);
                                f.call_batch(
                                    r.node,
                                    (0..n).map(|_| (r.obj, self.bump, args![1u64])),
                                )
                                .unwrap();
                                shipped += n;
                            }
                        }
                    }
                    self.drain(r);
                });
            }
        });
        (self.refs.len() * calls) as f64 / start.elapsed().as_secs_f64()
    }

    /// One timed round of the sync (replied `bump`) workload under `policy`;
    /// returns calls/sec.
    fn sync_round(&self, policy: &CallPolicy, calls: usize) -> f64 {
        let start = Instant::now();
        std::thread::scope(|s| {
            for &r in &self.refs {
                s.spawn(move || {
                    let f = &self.fabric;
                    for _ in 0..calls {
                        let mut buf = f.buffers().take();
                        f.marshal().encode_args_id(self.bump, &args![1u64], &mut buf).unwrap();
                        let reply = f.call(r, self.bump, buf.freeze(), policy).unwrap();
                        f.buffers().recycle(reply);
                    }
                });
            }
        });
        (self.refs.len() * calls) as f64 / start.elapsed().as_secs_f64()
    }
}

#[derive(Clone, Copy, PartialEq)]
enum OnewayConfig {
    StringFresh,
    InternedFresh,
    InternedPooled,
    Packed,
}

impl OnewayConfig {
    fn name(self) -> &'static str {
        match self {
            OnewayConfig::StringFresh => "string_fresh",
            OnewayConfig::InternedFresh => "interned_fresh",
            OnewayConfig::InternedPooled => "interned_pooled",
            OnewayConfig::Packed => "packed",
        }
    }
}

struct Knobs {
    oneway_calls: usize,
    sync_calls: usize,
    warmup: usize,
    rounds: usize,
    quick: bool,
}

impl Knobs {
    fn from_env() -> Self {
        if std::env::var("WEAVEPAR_BENCH_QUICK").is_ok_and(|v| v == "1") {
            Knobs { oneway_calls: 128, sync_calls: 16, warmup: 1, rounds: 2, quick: true }
        } else {
            Knobs { oneway_calls: 4_000, sync_calls: 400, warmup: 2, rounds: 9, quick: false }
        }
    }
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = samples.len() / 2;
    if samples.len().is_multiple_of(2) {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    }
}

/// Run one (workload, config, threads) cell on a fresh fabric and verify no
/// call was lost: the server-side hit counts must equal every bump issued.
fn run_cell(knobs: &Knobs, threads: usize, calls: usize, round: impl Fn(&Harness) -> f64) -> f64 {
    let h = Harness::new(threads);
    let mut samples = Vec::with_capacity(knobs.rounds);
    for i in 0..knobs.warmup + knobs.rounds {
        let calls_per_sec = round(&h);
        if i >= knobs.warmup {
            samples.push(calls_per_sec);
        }
    }
    let issued = h.refs.iter().map(|&r| h.drain(r)).sum::<u64>();
    let expected = (threads * (knobs.warmup + knobs.rounds) * calls) as u64;
    assert_eq!(issued, expected, "lost or duplicated remote calls");
    median(samples)
}

fn main() {
    // cargo passes `--bench`; this harness has no options.
    let _ = std::env::args();
    let knobs = Knobs::from_env();

    let mut json_cells = Vec::new();
    let mut cell = |workload: &str, config: &str, threads: usize, calls_per_sec: f64| {
        json_cells.push(format!(
            "    {{\"workload\": \"{workload}\", \"config\": \"{config}\", \"threads\": {threads}, \"median_calls_per_sec\": {calls_per_sec:.0}}}"
        ));
    };

    let oneway_configs = [
        OnewayConfig::StringFresh,
        OnewayConfig::InternedFresh,
        OnewayConfig::InternedPooled,
        OnewayConfig::Packed,
    ];
    println!("== oneway ablation ladder (median calls/sec, {} rounds) ==", knobs.rounds);
    println!(
        "{:>8} {:>13} {:>15} {:>16} {:>13} {:>8}",
        "threads", "string_fresh", "interned_fresh", "interned_pooled", "packed", "pack gain"
    );
    let mut packed_gain_8t = 0.0;
    for threads in THREAD_COUNTS {
        let mut row = Vec::new();
        for config in oneway_configs {
            let calls_per_sec = run_cell(&knobs, threads, knobs.oneway_calls, |h| {
                h.oneway_round(config, knobs.oneway_calls)
            });
            cell("oneway", config.name(), threads, calls_per_sec);
            row.push(calls_per_sec);
        }
        // The packing gain is measured against the otherwise-identical
        // unpacked fast path (interned ids + pooled frames).
        let gain = row[3] / row[2];
        if threads == 8 {
            packed_gain_8t = gain;
        }
        println!(
            "{threads:>8} {:>13.0} {:>15.0} {:>16.0} {:>13.0} {gain:>7.2}x",
            row[0], row[1], row[2], row[3]
        );
    }

    println!(
        "\n== sync: always queued vs served inline when idle (median calls/sec, {} rounds) ==",
        knobs.rounds
    );
    println!("{:>8} {:>14} {:>14} {:>8}", "threads", "queued", "unbounded", "gain");
    let sync_policies = [
        ("queued", CallPolicy::with_deadline(Duration::from_secs(3600))),
        ("unbounded", CallPolicy::unbounded()),
    ];
    for threads in THREAD_COUNTS {
        let mut row = Vec::new();
        for (name, policy) in &sync_policies {
            let calls_per_sec = run_cell(&knobs, threads, knobs.sync_calls, |h| {
                h.sync_round(policy, knobs.sync_calls)
            });
            cell("sync", name, threads, calls_per_sec);
            row.push(calls_per_sec);
        }
        println!("{threads:>8} {:>14.0} {:>14.0} {:>7.2}x", row[0], row[1], row[1] / row[0]);
    }

    println!("\npacked vs unpacked oneway at 8 threads: {packed_gain_8t:.2}x");
    if knobs.quick {
        println!("quick mode: skipping BENCH_remote.json");
        return;
    }
    let json = format!(
        "{{\n  \"bench\": \"remote_throughput\",\n  \"unit\": \"calls_per_sec\",\n  \"nproc\": {},\n  \"rounds\": {},\n  \"packed_vs_unpacked_oneway_8_threads\": {packed_gain_8t:.2},\n  \"cells\": [\n{}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        knobs.rounds,
        json_cells.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_remote.json");
    std::fs::write(out, json).expect("write BENCH_remote.json");
    println!("wrote {out}");
}
