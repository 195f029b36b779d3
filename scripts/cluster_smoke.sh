#!/usr/bin/env bash
# Cluster smoke test: start a TCP daemon, push the corpus
# through it twice (cold then warm), then start a *second* daemon that
# chains the first as its remote obligation-cache tier, push the same
# corpus through it, and assert (a) the second daemon's reports are
# byte-identical to the first's, (b) >=90% of its obligation lookups
# were served by the remote tier, (c) both daemons shut down cleanly.
#
# Usage: scripts/cluster_smoke.sh [path-to-commcsl-binary]
set -euo pipefail

BIN=${1:-./target/release/commcsl}
WORK=$(mktemp -d)

cleanup() {
    kill "$PEER_PID" "$EDGE_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
PEER_PID=""
EDGE_PID=""
trap cleanup EXIT

# Waits for a daemon's readiness line in its log and prints the actual
# host:port it bound (port 0 = ephemeral).
wait_addr() {
    local log=$1 addr=""
    for _ in $(seq 1 200); do
        addr=$(sed -n 's|.*daemon listening on tcp://\([^ ]*\) .*|\1|p' "$log")
        [ -n "$addr" ] && break
        sleep 0.05
    done
    [ -n "$addr" ] || { echo "cluster smoke: no readiness line in $log" >&2; exit 1; }
    echo "$addr"
}

"$BIN" serve --tcp 127.0.0.1:0 --cache-dir "$WORK/peer-cache" \
    > "$WORK/peer.log" 2>&1 &
PEER_PID=$!
ADDR1=$(wait_addr "$WORK/peer.log")
echo "cluster smoke: peer daemon on tcp://$ADDR1"

# Two passes through the peer: cold, then warm from its cache.
run_peer() {
    "$BIN" verify --daemon --tcp "$ADDR1" --json "$@"
}
run_peer examples/programs > "$WORK/peer_pass1.json"
run_peer examples/programs > "$WORK/peer_pass2.json"
run_peer --expect rejected examples/rejected > "$WORK/peer_rejected.json"

STATUS1=$("$BIN" daemon status --tcp "$ADDR1" --json)
echo "cluster smoke: peer status = $STATUS1"
python3 - "$STATUS1" "$WORK/peer_pass1.json" "$WORK/peer_pass2.json" <<'EOF'
import json, sys
s = json.loads(sys.argv[1])
assert s["transport"] == "tcp", s
assert s["programs"] >= 18, s
p1 = json.loads(open(sys.argv[2]).read())
p2 = json.loads(open(sys.argv[3]).read())
assert p1["summary"]["engine"] == "daemon", p1["summary"]
assert p2["summary"]["engine"] == "daemon", p2["summary"]
reports1 = {r["file"]: r["report"] for r in p1["results"]}
reports2 = {r["file"]: r["report"] for r in p2["results"]}
assert reports1 == reports2, "warm peer pass changed a report"
assert all(r["cached"] for r in p2["results"]), "second pass not cached"
EOF

# The edge daemon: fresh caches, the peer chained in as its remote
# obligation tier over cache_get/cache_put.
"$BIN" serve --tcp 127.0.0.1:0 --cache-dir "$WORK/edge-cache" --remote-cache "$ADDR1" \
    > "$WORK/edge.log" 2>&1 &
EDGE_PID=$!
ADDR2=$(wait_addr "$WORK/edge.log")
echo "cluster smoke: edge daemon on tcp://$ADDR2 (remote cache tcp://$ADDR1)"

"$BIN" verify --daemon --tcp "$ADDR2" --json examples/programs > "$WORK/edge_pass.json"
"$BIN" verify --daemon --tcp "$ADDR2" --json --expect rejected examples/rejected > "$WORK/edge_rejected.json"

STATUS2=$("$BIN" daemon status --tcp "$ADDR2" --json)
echo "cluster smoke: edge status = $STATUS2"
python3 - "$STATUS2" "$ADDR1" "$WORK/peer_pass1.json" "$WORK/edge_pass.json" \
    "$WORK/peer_rejected.json" "$WORK/edge_rejected.json" <<'EOF'
import json, sys
s = json.loads(sys.argv[1])
assert s["remote"] == f"tcp://{sys.argv[2]}", s
hits, misses = s["remote_hits"], s["remote_misses"]
assert hits > 0, s
assert hits >= 0.9 * (hits + misses), \
    f"remote tier served {hits}/{hits + misses} obligation lookups"
for peer_path, edge_path in [(sys.argv[3], sys.argv[4]), (sys.argv[5], sys.argv[6])]:
    peer = json.loads(open(peer_path).read())
    edge = json.loads(open(edge_path).read())
    assert edge["summary"]["engine"] == "daemon", edge["summary"]
    peer_reports = {r["file"]: r["report"] for r in peer["results"]}
    edge_reports = {r["file"]: r["report"] for r in edge["results"]}
    assert peer_reports == edge_reports, \
        f"remote-hit verdicts differ from the peer's ({edge_path})"
EOF

"$BIN" daemon stop --tcp "$ADDR2"
wait "$EDGE_PID"
EDGE_PID=""
"$BIN" daemon stop --tcp "$ADDR1"
wait "$PEER_PID"
PEER_PID=""
echo "cluster smoke: OK (clean shutdown)"
