#!/usr/bin/env sh
# Local CI gate: formatting, lints (deny warnings), build, full test suite.
# Everything runs offline against the vendored shims (see vendor/README.md).
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

# One path per operation: the forks deleted in PR 15 (and the deprecated
# constructors), the duplicate machinery deleted in PR 16 and the per-routing
# copies of the partition module folded in PR 20 must not come back unnoticed;
# nor the sort kernel deleted in PR 23, whose every node built a `Vec` and then
# copied it into a `Pack` (a result is built in place, with `Pack::build`); nor
# the tuner's dormant reach deleted in PR 26 (the pool's grain cell, the
# cutoff and fusion hints, the simulator hook, the controller thread and its
# knobs); nor the partition's own re-offer of lost packs, the pack hint that
# existed for it and the simulator's dormant packing model: the supervisor is
# the one recovery path, and a tuner reaches a skeleton through a cell its
# closure captures. Nor what PR 30 took off the join point: the control-flow
# stack nothing read (provenance is the one notion of where a call comes from)
# and the futures' deadline joins (`take` is the one join; a remote call's
# deadline is its `CallPolicy`). Nor the per-word `Pack` encode, one
# `put_u64_le` call per item: a pack crosses the wire in one bulk write
# (`BytesMut::put_zeroed`) and is read back in one pass. Nor the dynamic farm's
# puller threads and what only they used (the masked data-dependency marker and
# the "lost a pack" error): a pack takes the next idle worker when it starts.
# Nor the candidate list built as a `Vec` and then copied into its pack: it is
# collected into the pack (`candidate_pack`).
# Nor the sort's hand-rolled leaf merge sort and its per-call pool: a leaf is
# `sort_unstable`d in its pack, and the recursion runs on one process-wide pool.
# Nor the thread-pool aspect that only renamed `future_aspect` over a pool: the
# pool is the executor the concurrency module is plugged with. Nor the second
# entry points that only their own tests reached: the oneway module and its
# error sink (Figure 12's module is `future_concurrency_aspect`; a oneway call
# leaves its future untaken), the tracker's timed wait, the typed and
# per-space unwoven calls (`construct_dyn_unwoven`, `invoke_unwoven`), the
# fabric's `call_batch`, `PackFrame::push_encoded` and the name-keyed registry
# `decode_args` (`new_pack` → `push` → `submit_pack`, `decode_args_id`;
# `WireArgs::decode_args` stays), the bounded LRU cache,
# `ClusterConfig::with_nodes`, and the three skeleton modules that only
# re-exported a name of `partition`. Nor the shards no workload contended
# (PR 40): a metric is one `Arc` of plain atomics and binds only an
# `Arc<AtomicU64>`, a pool is one free list, the object space one map; nor the
# call log's capacity knob (the ring holds `CALL_LOG_CAPACITY`). Nor the
# second heartbeat app (`heat2d`), the second concurrency module (active
# objects: Figure 12's `future_concurrency_aspect` is the one), the advice
# hop's fire counter and its readers, and the `pub fn`s only tests reached
# (the census below keeps any other such item from growing back). Nor the
# second duplication path, which built a construction's siblings unwoven
# (`construct_sibling`: workers are woven `construct_dyn` calls, so a plugged
# distribution aspect places them), the typed view of a maybe-future result
# (`resolve_any` is the one way to read a woven result) with the `is_ready`
# pair only it read, the by-value sort merge and the transient error nothing
# raised, all only ever reached by tests. Nor the middleware's own reply slot
# and its ticket: a queued reply is the concurrency module's one-shot
# future (`ReplyCell`), taken with `take_until` and re-armed with `reset`.
echo "==> no retired fork under crates tests examples"
retired='#\[deprecated|allow\(deprecated\)|set_force_boxed|set_match_cache|SingleQueue|ReplyBackend|call_id|CallBatcher'
retired="$retired|DispatchStats|MetricsCell|METRICS_TLS|struct Flight|max_calls_cell|max_age_ms_cell"
retired="$retired|fetch_halos|FarmMeters|fn redispatch_pack"
retired="$retired|Pack::from_vec\\(merge"
retired="$retired|batch_grain|set_fusion|fusion_or|set_cutoff|cutoff_or|from_tuned|last_epoch|EpochStats"
retired="$retired|is_running|hysteresis"
retired="$retired|set_packs|packs_or|replace_hint|HintGuard|PackingModel|with_packing|Partition\\.redispatched"
retired="$retired|push_cflow|in_cflow_of|cflow_snapshot|CflowGuard|take_timeout|try_take|resolve_any_deadline"
retired="$retired|put_u64_le\\(\\*v\\)"
retired="$retired|pulled_wave|push_data_dep|DataDepGuard|lost a pack"
retired="$retired|Pack::from_vec\\(candidates"
retired="$retired|fn merge_sort|fn insertion_sort|INSERTION_RUN|let executor = Executor::pool\\(dc_pool_size"
retired="$retired|pooled_invocation_aspect"
retired="$retired|oneway_aspect|(^|[^_])concurrency_aspect|ErrorSink|wait_idle_timeout"
retired="$retired|construct_unwoven|\\.call_unwoven\\(|fn call_unwoven\\(|space(\\(\\))?\\.invoke\\("
retired="$retired|call_batch[<(]|push_encoded|\\.decode_args\\(|fn decode_args\\(&self"
retired="$retired|object_cache_aspect_bounded|insert_bounded|CacheStore|with_nodes"
retired="$retired|(crate|skeletons)::(farm|pipeline|dynamic_farm)::|mod (farm|pipeline|dynamic_farm);"
retired="$retired|CounterRepr|GaugeRepr|HistogramShard|PaddedU64|bind_gauge_u32|bind_gauge_usize"
retired="$retired|PER_SHARD|fn shard_index|CallLog::with_capacity"
retired="$retired|heat2d|solve2d|SlabProxy|active_object_aspect|ActiveRuntime|mod active;"
retired="$retired|fired: AtomicU64|\\.fired\\.fetch_add|pub fn (advice_fire_counts|active_advice_count|advice_count|fired)\\("
retired="$retired|pub fn (speedup|peak_parallelism|total_bytes|unbind|with_field_mut|remove_field|remove_object)[<(]"
retired="$retired|pub fn (for_method|provenance_split|total_elapsed|summary|method_count|knows|is_async_boundary)[<(]"
retired="$retired|pub fn (from_handle|is_plugged|pooled|is_inline)[<(]"
retired="$retired|pub fn (construct_sibling|future_ret|merge|retryable|is_ready)[<(]|pub enum FutureOrNow|Retryable\\(String\\)"
retired="$retired|ReplySlot|SlotTicket|wait_deadline"
retired="$retired|SigCache|struct Serving|fn obj_reply|decode_args_id|Request::(Call|Construct|Snapshot|Restore) \\{"
if grep -rnE "$retired" crates tests examples; then
    echo "a retired two-way path is back (see EXPERIMENTS.md, \"Retired baselines\")"
    exit 1
fi
# The repo measures itself once, in perfbench/: no second harness comes back.
if grep -rnE "weavepar.bench|WEAVEPAR_BENCH_QUICK|WEAVEPAR_MAX|criterion" crates tests examples vendor Cargo.toml; then
    echo "crates/bench and vendor/criterion were deleted in PR 22 (see EXPERIMENTS.md, \"Retired baselines\")"
    exit 1
fi
if grep -rn "crossbeam" crates/skeletons crates/middleware crates/apps; then
    echo "skeletons, middleware and apps are crossbeam-free: results come back through join"
    echo "handles, replies through the pooled reply cell (only concurrency::pool uses the deque)"
    exit 1
fi
if grep -rn "crossbeam::channel" crates tests examples vendor; then
    echo "crossbeam::channel was deleted in PR 21 (see EXPERIMENTS.md, \"Retired baselines\")"
    exit 1
fi

# Every app runs its concurrency on the crate's one process-wide pool (§4.4's
# thread pool), not a thread per call. Thread-per-call stays legitimate
# elsewhere, so this is a check on the apps' path, not a retired name.
echo "==> no thread_per_call under crates/apps/src"
if grep -rn "thread_per_call" crates/apps/src; then
    echo "an app starts a thread per call instead of plugging the shared pool"
    exit 1
fi

# Partition code reaches its workers through join points, so that distribution
# and the recorder see every access: `with_object` reads the *local* object,
# which under a distribution aspect is the stub.
echo "==> no with_object in crates/{apps,skeletons}/src (test modules excluded)"
direct=$(find crates/apps/src crates/skeletons/src -name '*.rs' | sort | while read -r f; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } /with_object(::<[^>]*>)?\(/ { print f ":" FNR ": " $0 }' "$f"
done)
if [ -n "$direct" ]; then
    echo "$direct"
    echo "application or skeleton code reads a worker behind the weaver's back"
    exit 1
fi

# No skeleton owns a thread: a partition issues calls, and asynchrony is
# whatever concurrency aspect is plugged (Table 1's concurrency column).
echo "==> no thread::scope / thread::spawn in crates/skeletons/src (test modules excluded)"
threads=$(find crates/skeletons/src -name '*.rs' | sort | while read -r f; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } /thread::(scope|spawn)/ { print f ":" FNR ": " $0 }' "$f"
done)
if [ -n "$threads" ]; then
    echo "$threads"
    echo "skeleton code starts an OS thread of its own instead of plugging concurrency"
    exit 1
fi

# Per-thread state is the weaving context (crates/weave/src/context.rs) unless
# it has a reason not to be: a new `thread_local!` outside test modules is a
# decision, not an accident. Raise the number with the reason next to the cell.
echo "==> thread_local! census under crates/*/src (test modules excluded)"
census=$(find crates/*/src -name '*.rs' | sort | while read -r f; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } /thread_local!/ { n++ } END { if (n) print n, f }' "$f"
done)
if [ "$(echo "$census" | awk '{ n += $1 } END { print n + 0 }')" -gt 6 ]; then
    echo "$census"
    echo "more than 6 production thread_local! blocks (DESIGN.md §2 lists the six and why)"
    exit 1
fi

# A public item is there for a caller. The census lists every `pub` fn,
# struct, enum, trait, type, const and static in the production part of
# crates/*/src (the lines before a file's first column-0 `#[cfg(test)]`,
# comment lines and `use` items skipped, string literals blanked) whose name
# appears as a word in no other production line, in examples/ or in
# perfbench/src: a re-export or a name in an error message is not a caller. The list must equal `keep`, where
# each name carries its reason: an item only tests reach fails here (give it
# a caller or delete it), and so does a kept name that gained a caller or
# went (take it off the list).
echo "==> census: public items without a non-test caller"
keep='
around_if            AspectJ if(): advice guarded on live arguments
within_aspects       AspectJ within(): only the calls advice makes
within_self          AspectJ within(): only the calls an object makes on itself
install_faults       the fault-injection seam the chaos matrix drives
clear_faults         the fault-injection seam the chaos matrix drives
seeded               the fault-injection seam: a schedule that is a pure function of its seed
object_cache_aspect  section 4.4: the object cache, an optimisation concern
unary                section 4.4: the object cache keyed on a one-argument call
random               section 4.3: random placement of remote objects
from_values          a supervisor re-forwards a returned value as arguments (the crate-root example)
to_text              ROADMAP 4(e): the snapshot rendering the event stream is to print
to_json              ROADMAP 4(e): the snapshot rendering the event stream is to print
force_tick           ROADMAP 7: the tuner earns a workload or leaves, its test seams with it
reset_all            ROADMAP 7: the tuner earns a workload or leaves, its test seams with it
with_deadline        a remote call deadline: the CallPolicy the RmiConfig docs show
worst_case           the longest a policy may take: the chaos matrix bound against a hang
utilization          the replay bound busy <= makespan x cores, checked on random traces
ids_of_class         the one view of the workers a skeleton created, for its tests
is_shared            a pack copy-on-write state, which the sort write-back tests assert
pending_calls        the packer buffer, which the unplug race asserts empty
or                   AspectJ ||: pointcut disjunction, beside and / not
lower_bound          the replay bound max(critical path, work / cores) simulations are checked against
simulate_schedule    the per-task virtual schedule, which the metrics round trip checks
moves_accepted       ROADMAP 7: the tuner earns a workload or leaves, its test seams with it
records              the call log read back: what logging_aspect is for (ROADMAP 7 decides it)
remove_migration     section 4.3: the introduced migrate method unplugged again
supervisor_aspect    the one recovery path for a pack lost with its node (DESIGN section 5)
'
found=$({
    find crates/*/src -name '*.rs' | sort
    find examples perfbench/src -name '*.rs' | sort
} | xargs awk '
    FNR == 1 { production = 1; importing = 0 }
    /^#\[cfg\(test\)\]/ { production = 0 }
    !production || /^[[:space:]]*\/\// { next }
    importing || /^[[:space:]]*(pub(\([a-z]+\))? )?use / { importing = ($0 !~ /;/); next }
    {
        line = $0
        gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
        if (FILENAME ~ /^crates\// && match(line, /^[[:space:]]*pub (const |async |unsafe )*(fn|struct|enum|trait|type|const|static) +[A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr(line, RSTART, RLENGTH)
            sub(/.* /, "", name)
            defined[name]++
        }
        gsub(/[^A-Za-z0-9_]+/, " ", line)
        n = split(line, words, " ")
        for (i = 1; i <= n; i++) seen[words[i]]++
    }
    END { for (name in defined) if (seen[name] == defined[name]) print name }
' | sort)
echo "$found"
expected=$(echo "$keep" | awk 'NF { print $1 }' | sort)
if [ "$found" != "$expected" ]; then
    echo "$found" | grep -vxF "$expected" | sed 's/^/new, only tests reach it: /' || true
    echo "$expected" | grep -vxF "$found" | sed 's/^/kept, but it has a caller or is gone: /' || true
    echo "the census differs from its keep list"
    exit 1
fi

# "No assertion depends on sleeps" (ROADMAP north star) can only ratchet down:
# force the interleaving with a barrier or a gate, then lower the number.
echo "==> sleep( census under crates/*/src, tests/ and examples/"
sleeps=$(grep -rc "sleep(" crates/*/src tests examples | grep -v ':0$' || true)
if [ "$(echo "$sleeps" | awk -F: '{ n += $NF } END { print n + 0 }')" -gt 12 ]; then
    echo "$sleeps"
    echo "more than 12 sleep( sites"
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Every crate's documentation builds: a broken or private intra-doc link is
# an error, not a warning.
echo "==> cargo doc --no-deps --workspace (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> cargo build --release"
cargo build --release

# Tier-1 three times back-to-back: a test that depends on its environment
# (load, sibling tests, timing) shows up as a round that differs.
for round in 1 2 3; do
    echo "==> cargo test -q, round $round"
    cargo test -q
done

echo "==> cargo test --release (middleware stress: packing plug/unplug races)"
cargo test --release -q -p weavepar-middleware -p weavepar-apps --test stress_middleware

# Fork/join on the pool: joins that help instead of block. A lost wake-up or
# a deadlock is a matter of interleaving, so the stress runs three times
# back-to-back in --release (each test fails under its watchdog, never hangs).
for round in 1 2 3; do
    echo "==> fork/join stress, round $round (--release)"
    cargo test --release -q -p weavepar-apps --test stress_executor fork_join
done

# Replied calls served on the caller's thread: who holds a node's serve token
# is a matter of interleaving too (kill, panics and queued requests racing
# inline callers), so that group gets the same three rounds.
for round in 1 2 3; do
    echo "==> served_inline stress, round $round (--release)"
    cargo test --release -q -p weavepar-apps --test stress_middleware served_inline
done

# Plug/unplug racing dispatch on the one-level chain cache: interleaving
# again, so three rounds of the dispatch stress as well.
for round in 1 2 3; do
    echo "==> dispatch stress, round $round (--release)"
    cargo test --release -q -p weavepar-apps --test stress_dispatch
done

# The benchmark is a package of its own (not a workspace member): its tests
# are what catches a break of the frozen API list in perfbench/README.md.
echo "==> benchmark package tests (perfbench/)"
CARGO_TARGET_DIR=.bench_build cargo test --offline --manifest-path perfbench/Cargo.toml
# perfbench/ is frozen, its lock file included, and cargo drops from it the
# `crossbeam` edges `weavepar-skeletons` (PR 20), `weavepar-middleware` and
# `weavepar-apps` (PR 21) no longer have: put the file back.
git checkout -- perfbench/Cargo.lock 2>/dev/null || true

echo "==> chaos matrix, pinned seed (--release)"
cargo test --release -q -p weavepar-apps --test chaos_middleware

# Randomised seed on top of the pinned regression run: every fault schedule
# is a pure function of CHAOS_SEED, so a failure here is replayed exactly by
# re-running ci.sh with the printed seed exported.
CHAOS_SEED=$(awk 'BEGIN { srand(); printf "%d", rand() * 2147483647 }')
echo "==> chaos matrix, randomised seed CHAOS_SEED=$CHAOS_SEED (--release)"
CHAOS_SEED="$CHAOS_SEED" cargo test --release -q -p weavepar-apps --test chaos_middleware || {
    echo "chaos matrix failed under CHAOS_SEED=$CHAOS_SEED — replay with:"
    echo "  CHAOS_SEED=$CHAOS_SEED cargo test --release -p weavepar-apps --test chaos_middleware"
    exit 1
}

# Autotuner convergence under a randomised seed: the hill-climb trajectory is
# a pure function of TUNE_SEED, so a failure here is replayed exactly by
# re-running with the printed seed exported (the test also embeds the seed in
# its assertion message).
TUNE_SEED=$(awk 'BEGIN { srand(); printf "%d", rand() * 2147483647 }')
echo "==> autotuner convergence, randomised seed TUNE_SEED=$TUNE_SEED (--release)"
TUNE_SEED="$TUNE_SEED" cargo test --release -q -p weavepar tuning::tests::climbs_a_u_shaped || {
    echo "autotuner convergence failed under TUNE_SEED=$TUNE_SEED — replay with:"
    echo "  TUNE_SEED=$TUNE_SEED cargo test --release -p weavepar tuning::tests::climbs_a_u_shaped"
    exit 1
}

# Every distributed Table 1 row, 50 packs over seven filters, checked against
# the sequential sieve: their calls pass the stubs without a monitor and meet
# one at a time at the nodes (the pipeline's packs each continued on one
# thread, the dynamic farm's each on the worker it took).
for variant in pipe-rmi farm-rmi farm-drmi farm-mpp; do
    echo "==> weavepar-demo sieve --variant $variant --max 200000 --filters 7 --packs 50"
    row=$(cargo run --release -q -p weavepar-apps --bin weavepar-demo -- \
        sieve --variant "$variant" --max 200000 --filters 7 --packs 50)
    echo "$row"
    if ! echo "$row" | grep -q "(validated)"; then
        echo "the $variant sieve did not validate"
        exit 1
    fi
done

# The concurrent divide-and-conquer sort on the process-wide pool, checked
# item for item against the standard library's sort.
echo "==> weavepar-demo sort --concurrent --threshold 1024"
row=$(cargo run --release -q -p weavepar-apps --bin weavepar-demo -- sort --concurrent --threshold 1024)
echo "$row"
if ! echo "$row" | grep -q "(validated)"; then
    echo "the concurrent sort did not validate"
    exit 1
fi

# Every example must run to its end (exit 0), not just compile.
for example in examples/*.rs; do
    example=$(basename "$example" .rs)
    echo "==> cargo run --release --example $example"
    cargo run --release -q -p weavepar-apps --example "$example" > /dev/null
done

# The paper's whole evaluation at a tenth of the default size: all five blocks
# must print. The shape-check lines compare measured costs: shown, never a gate.
echo "==> weavepar-demo figures --max 200000"
figures=$(cargo run --release -q -p weavepar-apps --bin weavepar-demo -- figures --max 200000)
echo "$figures"
blocks='^(Figure 16|Figure 17 \(chart\)|Table 1|Degradation|Shape checks)'
if [ "$(echo "$figures" | grep -cE "$blocks")" -ne 5 ]; then
    echo "weavepar-demo figures did not print its five blocks"
    exit 1
fi

echo "CI OK"
