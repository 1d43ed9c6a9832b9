//! Inline-value fast path vs boxed values (the PR 9 tentpole).
//!
//! Run with: `cargo bench -p weavepar-bench --bench joinpoint_values`
//!
//! Every join point carries its arguments and return as [`Value`]s. The
//! inline representation stores small Copy payloads in the tag word set
//! (no heap); any other type takes the `Box<dyn Any>` path. The `boxed` arm
//! is the same arithmetic on [`Word`], a bench-local `u64` newtype the inline
//! cascade does not know, so `Value::new` boxes it by the rule every
//! application type goes through. The measured scenario is a four-argument
//! method dispatched through the paper's three-aspect pass-through stack:
//! four arguments plus the return are 5 values per call, so the boxed arm
//! pays 5 malloc/free pairs per call that the inline one does not.
//!
//! Groups:
//! * `scalar_dispatch` — 4×u64 → u64 through 0 / 3 pass-through aspects,
//!   inline vs boxed;
//! * `value_roundtrip` — args!/take/ret! round trip with no weaver at all
//!   (the pure representation cost);
//! * `pack_split` — splitting a 64k-item pack into 50 chunks: CoW
//!   `split_chunks` (aliasing one allocation) vs eager per-chunk copies.
//!
//! Acceptance (checked here, recorded in the JSON): the inline
//! representation's argument round trip — build the `args!` pack, take a
//! value out, wrap the return — is ≥ 1.5× the boxed arm. That is the
//! machinery this PR replaces; end-to-end dispatch also carries the fixed
//! weaving costs (TLS context frames, shard lookup, the per-object monitor,
//! per-advice chain frames) that argument representation cannot touch, so
//! full dispatch is asserted as a regression canary (≥ 1.1× unwoven,
//! ≥ 1.05× through three aspects) and every cell is recorded raw in the
//! JSON. Hand-rolled harness (same contract as the other benches): writes
//! `BENCH_values.json` at the workspace root; with `WEAVEPAR_BENCH_QUICK=1`
//! it runs a tiny smoke and skips the JSON and the acceptance assertions
//! (used by ci.sh).

use std::hint::black_box;
use std::time::Instant;

use weavepar::prelude::*;
use weavepar::{args, weaveable};

struct Knobs {
    rounds: usize,
    iters: usize,
    pack_items: usize,
    quick: bool,
}

impl Knobs {
    fn from_env() -> Self {
        if std::env::var("WEAVEPAR_BENCH_QUICK").is_ok_and(|v| v == "1") {
            Knobs { rounds: 3, iters: 2_000, pack_items: 4_096, quick: true }
        } else {
            Knobs { rounds: 15, iters: 150_000, pack_items: 65_536, quick: false }
        }
    }
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len().is_multiple_of(2) {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    }
}

/// Median ns/op over `rounds` rounds of `iters` ops each (one warmup round).
fn bench(rounds: usize, iters: usize, mut op: impl FnMut()) -> f64 {
    for _ in 0..iters {
        op();
    }
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(samples)
}

/// A `u64` the inline cascade has no variant for: `Value::new` boxes it.
#[derive(Clone, Copy)]
struct Word(u64);

impl weavepar::weave::ByteSize for Word {
    fn byte_size(&self) -> usize {
        8
    }
}

struct Alu;

weaveable! {
    class Alu as AluProxy {
        fn new() -> Self { Alu }
        fn fma(&mut self, a: u64, b: u64, c: u64, d: u64) -> u64 {
            a.wrapping_mul(b).wrapping_add(c).wrapping_mul(d | 1)
        }
        fn fma_word(&mut self, a: Word, b: Word, c: Word, d: Word) -> Word {
            Word(a.0.wrapping_mul(b.0).wrapping_add(c.0).wrapping_mul(d.0 | 1))
        }
    }
}

fn proxy_with_aspects(aspects: usize) -> AluProxy {
    let weaver = Weaver::new();
    for i in 0..aspects {
        weaver.plug(
            Aspect::named(format!("P{i}"))
                .around(Pointcut::call("Alu.*"), |inv: &mut Invocation| inv.proceed())
                .build(),
        );
    }
    AluProxy::construct(&weaver).unwrap()
}

/// Scalar dispatch ns/call for a representation × aspect-count cell.
fn scalar_cell(knobs: &Knobs, aspects: usize, boxed: bool) -> f64 {
    let proxy = proxy_with_aspects(aspects);
    let [a, b, c, d] = [3u64, 5, 7, 11];
    if boxed {
        assert!(!AnyValue::new(Word(a)).is_inline(), "the boxed arm must really box");
        bench(knobs.rounds, knobs.iters, || {
            let (a, b, c, d) = black_box((Word(a), Word(b), Word(c), Word(d)));
            black_box(proxy.fma_word(a, b, c, d).unwrap().0);
        })
    } else {
        bench(knobs.rounds, knobs.iters, || {
            black_box(proxy.fma(black_box(a), black_box(b), black_box(c), black_box(d)).unwrap());
        })
    }
}

/// Pure representation round trip: build args, take one out, wrap a return.
fn roundtrip_cell(knobs: &Knobs, boxed: bool) -> f64 {
    if boxed {
        bench(knobs.rounds, knobs.iters, || {
            let (a, b, c, d) = black_box((Word(3), Word(5), Word(7), Word(11)));
            let mut a = args![a, b, c, d];
            let x: Word = a.take(0).unwrap();
            let ret = AnyValue::new(Word(x.0.wrapping_mul(13)));
            black_box(ret.downcast_ref::<Word>().unwrap().0);
        })
    } else {
        bench(knobs.rounds, knobs.iters, || {
            let mut a = args![black_box(3u64), black_box(5u64), black_box(7u64), black_box(11u64)];
            let x: u64 = a.take(0).unwrap();
            let ret = AnyValue::new(x.wrapping_mul(13));
            black_box(ret.downcast_ref::<u64>().copied().unwrap());
        })
    }
}

fn main() {
    let _ = std::env::args();
    let knobs = Knobs::from_env();
    let mut cells = Vec::new();

    println!("== scalar_dispatch (median of {} rounds × {} calls) ==", knobs.rounds, knobs.iters);
    let mut speedup_0 = 0.0;
    let mut speedup_3 = 0.0;
    for aspects in [0usize, 3] {
        let inline_ns = scalar_cell(&knobs, aspects, false);
        let boxed_ns = scalar_cell(&knobs, aspects, true);
        let speedup = boxed_ns / inline_ns.max(1e-9);
        if aspects == 0 {
            speedup_0 = speedup;
        } else {
            speedup_3 = speedup;
        }
        println!(
            "{:>18} inline {inline_ns:>9.1}  boxed {boxed_ns:>9.1}  speedup {speedup:>6.2}x",
            format!("{aspects}_aspects")
        );
        for (repr, ns) in [("inline", inline_ns), ("boxed", boxed_ns)] {
            cells.push(format!(
                "    {{\"group\": \"scalar_dispatch\", \"aspects\": {aspects}, \"repr\": \"{repr}\", \"median_ns_per_call\": {ns:.1}}}"
            ));
        }
    }

    println!("\n== value_roundtrip (no weaver) ==");
    let inline_rt = roundtrip_cell(&knobs, false);
    let boxed_rt = roundtrip_cell(&knobs, true);
    let speedup_rt = boxed_rt / inline_rt.max(1e-9);
    println!(
        "{:>18} inline {inline_rt:>9.1}  boxed {boxed_rt:>9.1}  speedup {speedup_rt:>6.2}x",
        "args_take_ret"
    );
    for (repr, ns) in [("inline", inline_rt), ("boxed", boxed_rt)] {
        cells.push(format!(
            "    {{\"group\": \"value_roundtrip\", \"repr\": \"{repr}\", \"median_ns_per_call\": {ns:.1}}}"
        ));
    }

    println!("\n== pack_split ({} items into 50 chunks) ==", knobs.pack_items);
    let pack: Pack = (0..knobs.pack_items as u64).collect();
    let chunk = knobs.pack_items.div_ceil(50);
    let rounds = knobs.rounds.min(9);
    let iters = (knobs.iters / 1_000).max(10);
    let cow_ns = bench(rounds, iters, || {
        black_box(pack.split_chunks(chunk));
    });
    let copy_ns = bench(rounds, iters, || {
        let copies: Vec<Pack> = pack.as_slice().chunks(chunk).map(Pack::from_slice).collect();
        black_box(copies);
    });
    println!(
        "{:>18} cow {cow_ns:>12.1}  copy {copy_ns:>10.1}  speedup {:>6.2}x",
        "split_50",
        copy_ns / cow_ns.max(1e-9)
    );
    for (mode, ns) in [("cow", cow_ns), ("copy", copy_ns)] {
        cells.push(format!(
            "    {{\"group\": \"pack_split\", \"mode\": \"{mode}\", \"median_ns_per_split\": {ns:.1}}}"
        ));
    }

    if knobs.quick {
        println!("\nquick mode: skipping BENCH_values.json and acceptance bounds");
        return;
    }
    assert!(
        speedup_rt >= 1.5,
        "inline argument round trip must be ≥1.5x the boxed arm, got {speedup_rt:.2}x"
    );
    assert!(
        speedup_0 >= 1.1,
        "inline unwoven dispatch canary: expected ≥1.1x over boxed, got {speedup_0:.2}x"
    );
    assert!(
        speedup_3 >= 1.05,
        "inline 3-aspect dispatch canary: expected ≥1.05x over boxed, got {speedup_3:.2}x"
    );
    let json = format!(
        "{{\n  \"bench\": \"joinpoint_values\",\n  \"unit\": \"ns_per_call\",\n  \"nproc\": {},\n  \"rounds\": {},\n  \"inline_over_boxed_roundtrip\": {speedup_rt:.3},\n  \"inline_over_boxed_0_aspects\": {speedup_0:.3},\n  \"inline_over_boxed_3_aspects\": {speedup_3:.3},\n  \"cells\": [\n{}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        knobs.rounds,
        cells.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_values.json");
    std::fs::write(out, json).expect("write BENCH_values.json");
    println!("\nwrote {out}");
}
