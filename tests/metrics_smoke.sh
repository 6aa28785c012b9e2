#!/bin/sh
# Smoke test for the metrics surface: daemon up with --metrics-out, two
# scans through the --client one-shot path, the `metrics` NDJSON op via
# the `graphjs metrics` client, graceful shutdown, then the Prometheus
# snapshot written at drain must be well-formed and non-empty. Then a
# `batch --jobs 2` page must count every protocol frame exactly once.
set -e

BIN="$1"
EXAMPLE="$2"
SOCK="/tmp/gjs_metrics_smoke_$$.sock"
PROM="/tmp/gjs_metrics_smoke_$$.prom"
CORPUS="/tmp/gjs_metrics_smoke_$$.d"
BATCH_PROM="/tmp/gjs_metrics_smoke_$$.batch.prom"

"$BIN" serve --socket "$SOCK" --jobs 1 --metrics-out "$PROM" --quiet &
PID=$!
trap 'kill -9 "$PID" 2>/dev/null || true
      rm -rf "$SOCK" "$PROM" "$CORPUS" "$BATCH_PROM"' EXIT

# Two scans so the latency histogram has a distribution, not a point.
for NAME in one two; do
  "$BIN" serve --socket "$SOCK" --client \
    "{\"op\":\"scan\",\"name\":\"$NAME\",\"files\":[\"$EXAMPLE\"]}" \
    | grep -q '"ok":true'
done

# The one-shot metrics client: counters, percentiles, and gauges in one
# JSON object.
METRICS=$("$BIN" metrics --socket "$SOCK")
echo "$METRICS" | grep -q '"ok":true'
echo "$METRICS" | grep -q '"scan.latency_us"'
echo "$METRICS" | grep -q '"p99"'
echo "$METRICS" | grep -q '"serve.uptime_s"'

"$BIN" serve --socket "$SOCK" --client '{"op":"shutdown"}' \
  | grep -q '"ok":true'
wait "$PID"

# The drain-time Prometheus snapshot: typed counter and summary series
# with the full quantile ladder.
grep -q '^# TYPE graphjs_scan_attempts counter$' "$PROM"
grep -q '^# TYPE graphjs_scan_latency_us summary$' "$PROM"
grep -q 'graphjs_scan_latency_us{quantile="0.99"}' "$PROM"
grep -q '^graphjs_scan_latency_us_count 2$' "$PROM"
grep -q '^# TYPE graphjs_serve_uptime_s gauge$' "$PROM"

# Pool frames are recorded by their reader: each package's scan request by
# its worker, each response by the supervisor, so 4 packages make 8 frames.
mkdir -p "$CORPUS"
for I in 1 2 3 4; do cp "$EXAMPLE" "$CORPUS/p$I.js"; done
"$BIN" batch --quiet --jobs 2 --metrics-out "$BATCH_PROM" "$CORPUS" \
  > /dev/null
grep -q '^graphjs_proto_frame_bytes_count 8$' "$BATCH_PROM"
