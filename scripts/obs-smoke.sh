#!/bin/sh
# obs-smoke: boot a 3-daemon cluster with introspection and an embedded
# secure client per daemon (staggered joins, so later joins rekey an
# established group), curl the /metrics, /trace, and /healthz endpoints of
# every daemon, then run the full sgctrace collect -> report pipeline and
# assert the cluster produced at least one fully-phased join rekey. Exits
# nonzero on any failure. Requires: go, curl.
set -eu

cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
PIDS=""
cleanup() {
    for p in $PIDS; do kill "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "obs-smoke: building spreadd and sgctrace"
go build -o "$WORK/spreadd" ./cmd/spreadd
go build -o "$WORK/sgctrace" ./cmd/sgctrace

cat > "$WORK/segment.conf" <<EOF
d1 127.0.0.1:14801
d2 127.0.0.1:14802
d3 127.0.0.1:14803
EOF

DEBUG_PORTS="15801 15802 15803"
i=1
for port in $DEBUG_PORTS; do
    "$WORK/spreadd" -name "d$i" -config "$WORK/segment.conf" \
        -debug-addr "127.0.0.1:$port" \
        -join-group smoke -join-proto cliques -join-delay "$((i - 1))s" \
        > "$WORK/d$i.log" 2>&1 &
    PIDS="$PIDS $!"
    i=$((i + 1))
done

echo "obs-smoke: waiting for the 3-daemon view"
deadline=$(( $(date +%s) + 30 ))
while :; do
    if curl -fsS "http://127.0.0.1:15801/metrics" 2>/dev/null \
        | grep -q '"spread_views_installed": *[1-9]'; then
        break
    fi
    if [ "$(date +%s)" -gt "$deadline" ]; then
        echo "obs-smoke: FAIL: daemons never installed a view" >&2
        cat "$WORK"/d*.log >&2
        exit 1
    fi
    sleep 0.2
done

fail=0
check_json() {
    # $1 = url, $2 = required substring
    body=$(curl -fsS "$1") || { echo "obs-smoke: FAIL: GET $1" >&2; fail=1; return; }
    # Well-formed JSON: python is not guaranteed, so round-trip through go.
    if ! printf '%s' "$body" | go run ./scripts/jsoncheck >/dev/null 2>&1; then
        echo "obs-smoke: FAIL: $1 is not valid JSON: $body" >&2
        fail=1
        return
    fi
    case "$body" in
        *"$2"*) ;;
        *) echo "obs-smoke: FAIL: $1 missing $2: $body" >&2; fail=1 ;;
    esac
}

for port in $DEBUG_PORTS; do
    base="http://127.0.0.1:$port"
    check_json "$base/metrics" '"spread_views_installed"'
    check_json "$base/trace" '"view-install"'
    check_json "$base/healthz" '"ok"'
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi

# The trace pipeline: scrape every daemon with sgctrace collect, render the
# phase report, and require a fully-phased join rekey — the property the
# paper's figures decompose. The staggered embedded clients guarantee the
# second and third joins hit an already-keyed group, so a join-classified
# rekey must appear once the last client has keyed and sent.
echo "obs-smoke: waiting for a fully-phased join rekey"
deadline=$(( $(date +%s) + 60 ))
while :; do
    "$WORK/sgctrace" collect -group smoke -out "$WORK/bundle.json" \
        d1=http://127.0.0.1:15801 d2=http://127.0.0.1:15802 d3=http://127.0.0.1:15803 \
        2> "$WORK/collect.log" || {
        echo "obs-smoke: FAIL: sgctrace collect" >&2
        cat "$WORK/collect.log" >&2
        exit 1
    }
    "$WORK/sgctrace" report "$WORK/bundle.json" > "$WORK/report.txt"
    if grep 'class=join' "$WORK/report.txt" | grep -q 'fully-phased=true'; then
        break
    fi
    if [ "$(date +%s)" -gt "$deadline" ]; then
        echo "obs-smoke: FAIL: no fully-phased join rekey; report:" >&2
        cat "$WORK/report.txt" >&2
        cat "$WORK"/d*.log >&2
        exit 1
    fi
    sleep 1
done
echo "obs-smoke: sgctrace report:"
sed -n '1,25p' "$WORK/report.txt"

if grep -q 'UNREACHABLE' "$WORK/report.txt"; then
    echo "obs-smoke: FAIL: report marks a node unreachable" >&2
    exit 1
fi

# Causal critical path over the same bundle: the join rekey must come out
# as a happens-before-connected chain (every step ordered by the HLC
# graph, not by wall clocks agreeing), and the trace must carry zero
# causal-order violations — sgctrace crit exits 2 if any check fires.
echo "obs-smoke: sgctrace crit"
"$WORK/sgctrace" crit -group smoke "$WORK/bundle.json" > "$WORK/crit.txt" || {
    echo "obs-smoke: FAIL: sgctrace crit found causal-order violations" >&2
    cat "$WORK/crit.txt" >&2
    exit 1
}
if ! grep -q 'connected=true' "$WORK/crit.txt"; then
    echo "obs-smoke: FAIL: no happens-before-connected critical path" >&2
    cat "$WORK/crit.txt" >&2
    exit 1
fi
sed -n '1,20p' "$WORK/crit.txt"

echo "obs-smoke: PASS (3 daemons, 9 endpoints, 1+ fully-phased join rekey, connected critical path)"
