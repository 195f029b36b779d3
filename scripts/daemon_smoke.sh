#!/usr/bin/env bash
# Daemon smoke test: start `commcsl serve`, push the full corpus through
# the client twice (accepted and rejected sets), assert the second pass
# is served >=90% from cache via `daemon status`, that the cold pass fed
# the obligation split and the warm pass left it unchanged, and shut
# down cleanly.
#
# Usage: scripts/daemon_smoke.sh [path-to-commcsl-binary]
set -euo pipefail

BIN=${1:-./target/release/commcsl}
WORK=$(mktemp -d)
SOCK="$WORK/commcsl.sock"
CACHE="$WORK/cache"

cleanup() {
    kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$WORK"
}

"$BIN" serve --socket "$SOCK" --cache-dir "$CACHE" &
SERVE_PID=$!
trap cleanup EXIT

for _ in $(seq 1 200); do
    [ -S "$SOCK" ] && break
    sleep 0.05
done
[ -S "$SOCK" ] || { echo "daemon smoke: daemon never bound $SOCK" >&2; exit 1; }

run_client() {
    "$BIN" verify --daemon --no-start --socket "$SOCK" "$@"
}

# Two passes over both corpora: pass 1 populates the cache, pass 2 must
# be answered from it. Verdict expectations are pinned either way.
run_client examples/programs
run_client --expect rejected examples/rejected
COLD=$("$BIN" daemon status --socket "$SOCK" --json)
run_client examples/programs > "$WORK/second_pass.txt"
run_client --expect rejected examples/rejected

grep -q "cached" "$WORK/second_pass.txt" \
    || { echo "daemon smoke: second pass not served from cache" >&2; exit 1; }

STATUS=$("$BIN" daemon status --socket "$SOCK" --json)
echo "daemon smoke: status = $STATUS"
python3 - "$COLD" "$STATUS" <<'EOF'
import json, sys
cold = json.loads(sys.argv[1])
s = json.loads(sys.argv[2])
split = lambda d: (d["statically_proven"], d["solver_checked"])
assert all(n > 0 for n in split(cold)), f"cold verify misses feed the obligation split: {cold}"
assert split(s) == split(cold), f"warm program-tier hits leave the split unchanged: {cold} -> {s}"
hits = s["memory_hits"] + s["disk_hits"]
misses = s["misses"]
corpus = 23  # 18 accepted + 5 rejected programs per pass
assert misses == corpus, f"first pass should miss all {corpus}: {s}"
assert hits >= 0.9 * corpus, f"second pass must be >=90% cached: {s}"
assert s["programs"] == 2 * corpus, s
EOF

"$BIN" daemon stop --socket "$SOCK"
wait "$SERVE_PID"
[ ! -S "$SOCK" ] || { echo "daemon smoke: socket not removed" >&2; exit 1; }
echo "daemon smoke: OK (clean shutdown)"
