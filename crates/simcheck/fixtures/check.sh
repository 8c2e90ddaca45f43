#!/usr/bin/env bash
# Holds the determinism bans (the repo's `clippy.toml` and lint levels) to
# their fixture cases. Every case under `pass/` must lint clean, in test
# builds too. Every case under `fail/` must fail, with exactly the lints
# and error codes its `// fails:` line names. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")"
export CARGO_TARGET_DIR=../../../target/fixtures
clippy=(cargo clippy -q --message-format=json)

status=0
if ! "${clippy[@]}" --example pass --tests -- -D warnings >/dev/null; then
    cargo clippy -q --example pass --tests -- -D warnings || true
    echo "fixtures: pass/ does not lint clean" >&2
    status=1
fi
for case in fail/*.rs; do
    name=$(basename "$case" .rs)
    want=$(sed -n 's|^// fails: ||p' "$case" | tr ' ' '\n' | sort -u)
    if out=$("${clippy[@]}" --example "$name" -- -D warnings 2>&1); then
        echo "fixtures: $case lints clean; it should fail with:" $want >&2
        status=1
        continue
    fi
    got=$(grep -o '"code":{"code":"[^"]*"' <<<"$out" | cut -d'"' -f6 | sort -u)
    if [ "$got" != "$want" ]; then
        echo "fixtures: $case fails with [" $got "], not [" $want "]" >&2
        status=1
    fi
done
[ "$status" -eq 0 ] && echo "fixtures: $(ls fail/*.rs | wc -l) failing cases fail as named; pass/ lints clean"
exit "$status"
