#!/bin/sh
# swap-smoke: end-to-end model lifecycle check.
#
# Publish v1 to a fresh registry, serve it with rneserver -registry,
# publish v2, SIGHUP the server, and assert the serving version flips
# to v2 while a concurrent request hammer sees zero failed requests —
# the zero-downtime hot-swap contract, exercised through the real
# binaries rather than httptest.
set -eu

GO=${GO:-go}
PORT=${SWAP_SMOKE_PORT:-18371}
TMP=$(mktemp -d)
SRV_PID=""
HAMMER_PID=""
cleanup() {
    [ -n "$HAMMER_PID" ] && kill "$HAMMER_PID" 2>/dev/null || true
    [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

$GO run ./cmd/genroad -rows 10 -cols 10 -seed 7 -o "$TMP/g.txt"
$GO build -o "$TMP/rnebuild" ./cmd/rnebuild
$GO build -o "$TMP/rneserver" ./cmd/rneserver

"$TMP/rnebuild" -graph "$TMP/g.txt" -dim 8 -epochs 2 -seed 1 -report "$TMP/report.json" \
    -o "$TMP/m1.rne" -registry "$TMP/reg" -publish demo >/dev/null 2>&1

# The build report's trace is the build's span tree: the root, setup,
# the three training phases, finalize, and units carrying their loss.
for name in build setup hier-phase vertex-phase finetune-phase finalize; do
    if ! grep -q "\"name\": \"$name\"" "$TMP/report.json"; then
        echo "swap-smoke: build report has no $name span"
        cat "$TMP/report.json"
        exit 1
    fi
done
if ! grep -q '"loss_mean_rel"' "$TMP/report.json"; then
    echo "swap-smoke: build report has no unit span with loss_mean_rel"
    exit 1
fi

"$TMP/rneserver" -registry "$TMP/reg" -name demo -addr "127.0.0.1:$PORT" \
    >"$TMP/server.log" 2>&1 &
SRV_PID=$!

base="http://127.0.0.1:$PORT"
i=0
until curl -sf "$base/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ $i -gt 100 ]; then
        echo "swap-smoke: server never came up"
        cat "$TMP/server.log"
        exit 1
    fi
    sleep 0.1
done
if ! curl -sf "$base/healthz" | grep -q '"version":"v1"'; then
    echo "swap-smoke: expected registry v1 to be serving"
    curl -s "$base/healthz" || true
    exit 1
fi

# Hammer /distance for the whole publish + SIGHUP window; every failed
# request leaves a line in $TMP/failures.
(
    while :; do
        curl -sf "$base/distance?s=3&t=77" >/dev/null 2>&1 || echo fail >>"$TMP/failures"
    done
) &
HAMMER_PID=$!

"$TMP/rnebuild" -graph "$TMP/g.txt" -dim 8 -epochs 2 -seed 2 -report "" \
    -o "$TMP/m2.rne" -registry "$TMP/reg" -publish demo >/dev/null 2>&1

kill -HUP "$SRV_PID"
i=0
until curl -sf "$base/healthz" | grep -q '"version":"v2"'; do
    i=$((i + 1))
    if [ $i -gt 100 ]; then
        echo "swap-smoke: serving version never flipped to v2"
        cat "$TMP/server.log"
        exit 1
    fi
    sleep 0.1
done

kill "$HAMMER_PID" 2>/dev/null || true
wait "$HAMMER_PID" 2>/dev/null || true
HAMMER_PID=""

if [ -s "$TMP/failures" ]; then
    echo "swap-smoke: $(wc -l <"$TMP/failures") requests failed during the hot swap"
    exit 1
fi
if ! curl -sf "$base/metrics" | grep -q '^rne_model_swaps_total 1'; then
    echo "swap-smoke: rne_model_swaps_total did not count the swap"
    exit 1
fi
echo "swap-smoke: v1 -> v2 hot swap with zero failed requests"
