#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
# The determinism rules are clippy bans (clippy.toml) and lint levels (the
# root Cargo.toml, `dso`'s no-panic denies, `forbid(unsafe_code)`). The
# fixture crate holds them to their cases: each failing case fails with
# exactly the lints or error codes it names, and the passing cases lint
# clean, test code included.
crates/simcheck/fixtures/check.sh
cargo fmt --check
# Every rustdoc warning fails here: a doc link to an item that was deleted
# or moved, or to a private item from public docs.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Correctness tooling (crates/simcheck): the DSO cluster smoke workload
# under 25 perturbed schedules with linearizability checked on each (see
# DESIGN.md, "Correctness tooling").
cargo run --release -q -p simcheck --bin simexplore -- --seeds 25

experiments=(cargo run --release -q -p bench --bin experiments)

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
#   kernel-bench        one message ring on thread processes and on actors:
#                       the actor ring spends <= 2.5x the ns per event of
#                       a bare pop+push on the timing wheel (~1.3-1.7x; a
#                       hashed process or mailbox table, ~3.6x, fails),
#                       the thread ring runs >= 1/3 of the actor ring's
#                       events/sec (~0.5-0.6x; a wake-up that costs an OS
#                       thread handoff again, ~1/10, fails) and the actor
#                       ring >= 300k events/sec; 16 thread clients making
#                       64 000 call_timeout calls, all answered in time,
#                       leave <= 1 event pending per process (a timer left
#                       behind per answered call, 64 000, fails); a parent
#                       spawning and joining 4 000 one-shot children maps
#                       exactly 2 stacks (a stack per process fails); a
#                       1 KB Vec<u8> codec round trip costs <= 3x a Bytes
#                       one (~1x; coding it one element at a time fails);
#                       Fig 5's k-means assignment pass (200 points x 100
#                       dims, k = 25) runs >= 1.3x the distance terms/sec of a
#                       yardstick with one chain of adds per distance on the
#                       random initial centroids, and returns its bits
#                       (~1.5-1.7x; one chain per distance fails); on the
#                       centroids 5 Lloyd steps later it runs >= 2x the
#                       yardstick (~2.7-3.2x; summing every block in full
#                       without skipping, ~1.5x, fails); the passes of 10
#                       Lloyd steps through one Assigner, which carries each
#                       point's distance bounds to the next pass, run >= 1.5x
#                       the distance terms/sec of a fresh pass per step, with
#                       the same bits at every step (~2.0-2.3x; bounds that
#                       never skip a search, ~1.0x, fail). Host time: no
#                       BENCH file.
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
# `git diff` sees only tracked files: a BENCH file an experiment writes
# that git does not track fails here.
bench_status=$(git status --porcelain -- 'BENCH_*.json')
if [ -n "$bench_status" ]; then
    printf '%s\n' "$bench_status"
    echo "BENCH files not committed" >&2
    exit 1
fi

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
