#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check
# A doc link to an item that was deleted or moved fails here.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --no-deps --workspace

# Correctness tooling (crates/simcheck): the line-level determinism lint,
# the interprocedural analyzer (determinism taint, wait annotation
# coverage, no blocking call reachable from an Actor::on_wake — zero
# findings required), then the DSO cluster smoke workload under
# 25 perturbed schedules with linearizability checked on each (see
# DESIGN.md, "Correctness tooling" / "Static analysis").
cargo run --release -q -p simcheck --bin simlint
cargo run --release -q -p simcheck --bin simanalyze
cargo run --release -q -p simcheck --bin simexplore -- --seeds 25

# The `experiments` steps run on one CPU where `taskset` exists: the thread
# handoff they are made of is several times faster without cross-core
# wake-ups (kernel-bench's thread ring: up to 2.4 s -> 0.13 s on a 2-core
# box), and their output is byte-identical either way.
experiments=(cargo run --release -q -p bench --bin experiments)
if command -v taskset >/dev/null; then
    cpu=$(taskset -cp $$ | sed 's/.*: *//; s/[,-].*//')
    experiments=(taskset -c "$cpu" "${experiments[@]}")
fi

# Traced smoke run: export a Chrome trace from the π workload and
# schema-validate it (well-formed JSON, ts/dur present, span parents
# resolve). Guards the observability exports end to end.
"${experiments[@]}" trace-pi
cargo run --release -q -p simcheck --bin tracecheck -- results/trace-pi.chrome.json

# Elastic control-plane smoke: the 3x-ramp experiment self-asserts >=1
# scale-out, >=1 drain, >=90% peak tracking, and shed events, then
# exports its trace (reconcile/scale/drain spans, shed instants) for the
# same schema validation.
"${experiments[@]}" elastic
cargo run --release -q -p simcheck --bin tracecheck -- results/trace-elastic.chrome.json

# Gated experiments: each holds its own claims (one pure check over its
# typed report, unit-tested against synthetic reports) and exits non-zero
# when one breaks. Those that measure virtual time (and `elastic` above)
# also write their figures to a committed BENCH_*.json, exact per seed: a
# regenerated file that differs from the committed one fails below, so a
# PR that moves a figure has to commit the new one, and git history is the
# trajectory.
#   kernel-bench        one message ring on threads and on actors: the
#                       actor ring runs >= 3x the thread ring's events/sec
#                       (~8x pinned; an actor wake-up that starts costing
#                       like a thread handoff fails) and >= 300k events/sec.
#                       Host time: no BENCH file.
#   coldstart           classic vs snapshot-restore elastic runs plus the
#                       fork fan-out microbench; self-asserts the tier
#                       mechanics, then: a restore collapses the classic
#                       cold start >= 4x, a warm-parent fork undercuts the
#                       restore >= 2x.
#   consistency-ablate  mode x cache matrix on the hot rf=3 read workload
#                       under client churn: replica reads beat primary-only
#                       reads >= 1.2x, the leased client cache beats plain
#                       replica reads >= 2x, and the host-shared node cache
#                       beats the per-client cache >= 1.2x once clients
#                       churn like FaaS containers do.
#   recovery            crash-recovery vs checkpoint cadence plus per-level
#                       write overhead: a 500 ms cadence cuts full-cluster
#                       recovery >= 1.2x and replays fewer WAL bytes than
#                       the log alone, and async group commit stays off the
#                       write path (within 1.2x of no durability).
for experiment in kernel-bench coldstart consistency-ablate recovery; do
    "${experiments[@]}" "$experiment"
done
git diff --exit-code -- 'BENCH_*.json'

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
