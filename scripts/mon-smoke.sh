#!/bin/sh
# mon-smoke: the live-monitoring gate. Boot a 3-daemon TCP cluster with
# polled introspection endpoints and armed flight recorders, let sgcmon watch it
# converge (one-shot evaluation must exit 0 with zero alerts), then kill a
# daemon and require the failure to surface on every layer: sgcmon's
# one-shot evaluation exits 3 with an unreachable alert, the survivors'
# flight recorders dump diagnostics bundles, and `sgctrace report` re-reads
# a bundle post-hoc. Exits nonzero on any failure. Requires: go, curl.
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

echo "mon-smoke: building spreadd, sgcmon, and sgctrace"
go build -o "$WORK/spreadd" ./cmd/spreadd
go build -o "$WORK/sgcmon" ./cmd/sgcmon
go build -o "$WORK/sgctrace" ./cmd/sgctrace

cat > "$WORK/segment.conf" <<EOF
d1 127.0.0.1:14901
d2 127.0.0.1:14902
d3 127.0.0.1:14903
EOF

DEBUG_PORTS="15901 15902 15903"
i=1
for port in $DEBUG_PORTS; do
    mkdir -p "$WORK/flight-d$i"
    "$WORK/spreadd" -name "d$i" -config "$WORK/segment.conf" \
        -debug-addr "127.0.0.1:$port" \
        -flight-dir "$WORK/flight-d$i" \
        -join-group mon -join-proto cliques -join-delay "$((i - 1))s" \
        > "$WORK/d$i.log" 2>&1 &
    PIDS="$PIDS $!"
    eval "PID_D$i=$!"
    i=$((i + 1))
done

echo "mon-smoke: waiting for the 3-daemon view and keyed group"
deadline=$(( $(date +%s) + 30 ))
while :; do
    if curl -fsS "http://127.0.0.1:15901/trace" 2>/dev/null \
        | grep -q '"key-install"'; then
        break
    fi
    if [ "$(date +%s)" -gt "$deadline" ]; then
        echo "mon-smoke: FAIL: group never keyed" >&2
        cat "$WORK"/d*.log >&2
        exit 1
    fi
    sleep 0.2
done

# /readyz distinguishes liveness from readiness: a formed cluster must
# answer 200 on both.
for port in $DEBUG_PORTS; do
    code=$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$port/readyz")
    if [ "$code" != "200" ]; then
        echo "mon-smoke: FAIL: /readyz on :$port returned $code" >&2
        curl -s "http://127.0.0.1:$port/readyz" >&2 || true
        exit 1
    fi
done

TARGETS="d1=http://127.0.0.1:15901 d2=http://127.0.0.1:15902 d3=http://127.0.0.1:15903"

# Phase 1: the healthy fleet. One-shot sgcmon must poll every node, a
# single converged view/epoch, and no alerts (exit 0).
echo "mon-smoke: sgcmon one-shot over the healthy fleet"
if ! "$WORK/sgcmon" -once -duration 5s $TARGETS > "$WORK/mon-healthy.txt" 2>&1; then
    echo "mon-smoke: FAIL: sgcmon alerted on a healthy fleet:" >&2
    cat "$WORK/mon-healthy.txt" >&2
    cat "$WORK"/d*.log >&2
    exit 1
fi
if ! grep -q 'convergence: OK' "$WORK/mon-healthy.txt"; then
    echo "mon-smoke: FAIL: healthy dashboard not converged:" >&2
    cat "$WORK/mon-healthy.txt" >&2
    exit 1
fi
sed -n '1,12p' "$WORK/mon-healthy.txt"

# Phase 2: kill d3 without ceremony. The survivors' redial supervisors
# mark the link down, their flight recorders trip on the alert, and the
# monitor's polls of d3 fail.
echo "mon-smoke: killing d3"
kill -9 "$PID_D3" 2>/dev/null || true

echo "mon-smoke: sgcmon one-shot over the degraded fleet (must exit 3)"
set +e
"$WORK/sgcmon" -once -duration 6s $TARGETS > "$WORK/mon-degraded.txt" 2>&1
st=$?
set -e
if [ "$st" -ne 3 ]; then
    echo "mon-smoke: FAIL: sgcmon exited $st on a degraded fleet (want 3):" >&2
    cat "$WORK/mon-degraded.txt" >&2
    cat "$WORK"/d*.log >&2
    exit 1
fi
if ! grep -q 'node d3 unreachable' "$WORK/mon-degraded.txt"; then
    echo "mon-smoke: FAIL: degraded dashboard has no unreachable alert:" >&2
    cat "$WORK/mon-degraded.txt" >&2
    exit 1
fi
grep '!' "$WORK/mon-degraded.txt" | sed -n '1,6p'

# Phase 3: the survivors' flight recorders must have dumped bundles (the
# peer-link-down alert fires the watchdog within a couple of poll ticks).
echo "mon-smoke: waiting for a flight bundle from a survivor"
deadline=$(( $(date +%s) + 30 ))
BUNDLE=""
while :; do
    for dir in "$WORK"/flight-d1 "$WORK"/flight-d2; do
        b=$(ls -d "$dir"/flight-* 2>/dev/null | head -1) || true
        if [ -n "$b" ]; then BUNDLE="$b"; break 2; fi
    done
    if [ "$(date +%s)" -gt "$deadline" ]; then
        echo "mon-smoke: FAIL: no survivor wrote a flight bundle" >&2
        ls -la "$WORK"/flight-d1 "$WORK"/flight-d2 >&2 || true
        cat "$WORK"/d1.log "$WORK"/d2.log >&2
        exit 1
    fi
    sleep 0.5
done
echo "mon-smoke: flight bundle: $BUNDLE"
for f in bundle.json goroutine.txt state.json; do
    if [ ! -s "$BUNDLE/$f" ]; then
        echo "mon-smoke: FAIL: bundle artifact $f missing or empty" >&2
        ls -la "$BUNDLE" >&2
        exit 1
    fi
done

# Phase 4: the post-hoc pipeline reads the live dump — sgctrace report on
# the bundle directory must name the trigger and render the trace report.
"$WORK/sgctrace" report "$BUNDLE" > "$WORK/report.txt"
if ! grep -q 'flight bundle:' "$WORK/report.txt"; then
    echo "mon-smoke: FAIL: sgctrace report does not show the flight reason:" >&2
    cat "$WORK/report.txt" >&2
    exit 1
fi
sed -n '1,10p' "$WORK/report.txt"

echo "mon-smoke: PASS (converged one-shot, alert on kill, flight bundle re-read post-hoc)"
