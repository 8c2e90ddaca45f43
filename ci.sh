#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check

# Correctness tooling (crates/simcheck): the line-level determinism lint,
# the interprocedural analyzer (determinism taint, readonly purity, wait
# annotation coverage, no blocking call reachable from an Actor::on_wake —
# zero findings required; also refreshes the proven-pure report consumed
# via DsoConfig::pure_methods), then the DSO cluster smoke workload under
# 25 perturbed schedules with linearizability checked on each (see
# DESIGN.md, "Correctness tooling" / "Static analysis").
cargo run --release -q -p simcheck --bin simlint
cargo run --release -q -p simcheck --bin simanalyze -- --readonly-report results/pure_methods.txt
cargo run --release -q -p simcheck --bin simexplore -- --seeds 25

# Traced smoke run: export a Chrome trace from the π workload and
# schema-validate it (well-formed JSON, ts/dur present, span parents
# resolve). Guards the observability exports end to end.
cargo run --release -q -p bench --bin experiments trace-pi
cargo run --release -q -p simcheck --bin tracecheck -- results/trace-pi.chrome.json

# Elastic control-plane smoke: the 3x-ramp experiment self-asserts >=1
# scale-out, >=1 drain, >=90% peak tracking, and shed events, then
# exports its trace (reconcile/scale/drain spans, shed instants) for the
# same schema validation.
cargo run --release -q -p bench --bin experiments elastic
cargo run --release -q -p simcheck --bin tracecheck -- results/trace-elastic.chrome.json

# Benchcheck-gated experiments: each run writes its BENCH file, which
# benchcheck validates and holds to the claims the docs make. On failure a
# second, --json run leaves a machine-readable violation list for trend
# tooling.
#   kernel-bench        raw wheel churn, empty-cycle timers, the message
#                       ring on threads and on actors, and the DSO smoke
#                       (actor nodes, thread clients) as events/sec, each
#                       above a sanity floor (~1/10 of typical release
#                       numbers), so an order-of-magnitude kernel
#                       regression fails here; and the actor ring runs
#                       >= 5x the thread ring, so an actor wake-up that
#                       starts costing like a thread handoff fails too.
#   coldstart           classic vs snapshot-restore elastic runs plus the
#                       fork fan-out microbench; self-asserts the tier
#                       mechanics, then: a restore collapses the classic
#                       cold start >= 4x, a warm-parent fork undercuts the
#                       restore >= 2x.
#   consistency-ablate  mode x cache matrix on the hot rf=3 read workload
#                       under client churn: replica reads beat primary-only
#                       reads, and the host-shared node cache beats the
#                       per-client cache once clients churn like FaaS
#                       containers do.
#   recovery            crash-recovery vs checkpoint cadence plus per-level
#                       write overhead: a 500 ms cadence cuts full-cluster
#                       recovery >= 1.2x and replays fewer WAL bytes than
#                       the log alone, and async group commit stays off the
#                       write path (within 1.2x of no durability).
for pair in kernel-bench:BENCH_kernel.json coldstart:BENCH_coldstart.json \
    consistency-ablate:BENCH_consistency.json recovery:BENCH_recovery.json; do
    experiment=${pair%%:*} bench_file=${pair#*:}
    cargo run --release -q -p bench --bin experiments "$experiment"
    cargo run --release -q -p simcheck --bin benchcheck -- "$bench_file" \
        || { cargo run --release -q -p simcheck --bin benchcheck -- --json "$bench_file" \
               > results/benchcheck_violations.json || true; exit 1; }
done

# The acceptance benchmark (BENCHMARK.json) at test scale, the whole driver
# path: every workload in a pinned child (five timed runs and a traced one,
# output checks on), then the layer microbenches. It calls only public
# APIs, so a change that breaks them fails here rather than in the
# acceptance driver. Exit 2 is a child that did not run or failed its
# checks. Exit 1 is tolerated only for `unresolved` host timings, which
# millisecond-long smoke runs spread into on a busy machine; a virtual
# figure that is `NOT EXACT` also exits 1 and fails.
status=0
smoke=$(cargo run --release -q -p bench --bin benchmark -- --smoke 2>&1) || status=$?
if [ "$status" -eq 1 ] && grep -q unresolved <<<"$smoke" && ! grep -q 'NOT EXACT' <<<"$smoke"; then
    status=0
fi
if [ "$status" -ne 0 ]; then
    printf '%s\n' "$smoke"
    echo "benchmark --smoke failed (exit $status)" >&2
    exit 1
fi
