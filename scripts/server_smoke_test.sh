#!/usr/bin/env bash
# End-to-end smoke gate for the TCP serving front-end (wired into ctest
# as `server_smoke` and run in the CI build matrix):
#
#   1. `rpe_cli serve-tcp` starts on an ephemeral port (4 shards) and
#      prints the listening line.
#   2. A closed-loop `rpe_loadgen` burst completes every requested
#      session with zero errors, and its --check reconciliation passes:
#      client opens/completions/steps match the server's StatsResponse
#      counters exactly.
#   3. An open-loop burst against the same server also exits clean.
#   4. SIGTERM drains the server: it exits 0 and its final stats table
#      reports every connection closed and zero protocol/io errors.
#   5. A second server wired for online learning (--retrain-every /
#      --ingest-watermark) runs the saturation legs: an oversized ingest
#      batch is answered busy (shed, never dropped silently), a paced
#      under-watermark stream is accepted in full, and an
#      --ingest-until-swap run observes a published retrain — all with
#      --check reconciling client and server counters exactly.
#   6. The same server's HTTP /metrics scrape (--metrics-port) reconciles
#      exactly with the loadgen JSONs (offered == ingested + dropped +
#      shed), and its --trace-out dump is well-formed Chrome trace JSON
#      with the decode -> route -> advance span chain present.
#
# Usage: server_smoke_test.sh <path-to-rpe_cli> <path-to-rpe_loadgen>
set -u

CLI="${1:?usage: server_smoke_test.sh <rpe_cli> <rpe_loadgen>}"
LOADGEN="${2:?usage: server_smoke_test.sh <rpe_cli> <rpe_loadgen>}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/rpe_server_smoke.XXXXXX")"
SRV_PID=""
SRV2_PID=""
cleanup() {
  [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null
  [ -n "$SRV2_PID" ] && kill -9 "$SRV2_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

fails=0
note() { printf '%s\n' "$*"; }
fail() { printf 'FAIL: %s\n' "$*"; fails=$((fails + 1)); }

SRV_OUT="$WORK/server_stdout.txt"
SRV_ERR="$WORK/server_stderr.txt"

# --- start the server on an ephemeral port --------------------------------
"$CLI" serve-tcp --kind tpch --queries 10 --scale 2 --shards 4 --trees 10 \
  >"$SRV_OUT" 2>"$SRV_ERR" &
SRV_PID=$!

# The workload run + training dominate startup; poll for the listening
# line (format pinned by rpe_cli serve-tcp).
PORT=""
for _ in $(seq 1 600); do
  if ! kill -0 "$SRV_PID" 2>/dev/null; then
    fail "server died during startup: $(cat "$SRV_ERR")"
    exit 1
  fi
  PORT="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
          "$SRV_OUT" | head -n 1)"
  [ -n "$PORT" ] && break
  sleep 0.5
done
if [ -z "$PORT" ]; then
  fail "server never printed its listening line: $(cat "$SRV_ERR")"
  exit 1
fi
note "server up on port $PORT"

# --- closed-loop burst with exact reconciliation --------------------------
LG_OUT="$WORK/loadgen_closed.json"
if ! "$LOADGEN" --port "$PORT" --connections 8 --sessions 48 --steps 32 \
    --check >"$LG_OUT" 2>"$WORK/loadgen_closed_err.txt"; then
  fail "closed-loop loadgen failed: $(cat "$WORK/loadgen_closed_err.txt")"
fi
JSON="$(tail -n 1 "$LG_OUT")"
case "$JSON" in
  *'"sessions_completed":48'*) ;;
  *) fail "closed-loop run did not complete 48 sessions: $JSON" ;;
esac
case "$JSON" in
  *'"errors":0'*) ;;
  *) fail "closed-loop run reported errors: $JSON" ;;
esac
grep -q "counters reconcile exactly" "$WORK/loadgen_closed_err.txt" \
  || fail "closed-loop reconciliation line missing"

# --- open-loop burst (fixed arrival rate) ---------------------------------
if ! "$LOADGEN" --port "$PORT" --connections 4 --sessions 20 --steps 16 \
    --rate 200 >"$WORK/loadgen_open.json" \
    2>"$WORK/loadgen_open_err.txt"; then
  fail "open-loop loadgen failed: $(cat "$WORK/loadgen_open_err.txt")"
fi
case "$(tail -n 1 "$WORK/loadgen_open.json")" in
  *'"sessions_completed":20'*) ;;
  *) fail "open-loop run did not complete 20 sessions" ;;
esac

# --- SIGTERM drains to exit 0 ---------------------------------------------
kill -TERM "$SRV_PID"
SRV_RC=0
wait "$SRV_PID" || SRV_RC=$?
SRV_PID=""
[ "$SRV_RC" -eq 0 ] || fail "server exited $SRV_RC after SIGTERM"

table_value() {  # table_value <row-label-regex>
  awk -F'|' "/$1/ {gsub(/ /,\"\",\$3); print \$3}" "$SRV_OUT" | head -n 1
}
ACCEPTED="$(table_value 'connections accepted')"
CLOSED="$(table_value 'connections closed')"
PROTO_ERRS="$(table_value 'protocol errors')"
IO_ERRS="$(table_value 'io errors')"
OPENED="$(table_value 'sessions opened')"
COMPLETED="$(table_value 'sessions completed')"
[ -n "$ACCEPTED" ] && [ "$ACCEPTED" = "$CLOSED" ] \
  || fail "drain left connections open (accepted=$ACCEPTED closed=$CLOSED)"
[ "$PROTO_ERRS" = "0" ] || fail "protocol errors: $PROTO_ERRS"
[ "$IO_ERRS" = "0" ] || fail "io errors: $IO_ERRS"
# 48 closed-loop + 20 open-loop sessions, all driven to completion.
[ "$OPENED" = "68" ] || fail "server counted $OPENED opens, expected 68"
[ "$COMPLETED" = "68" ] \
  || fail "server counted $COMPLETED completions, expected 68"

# --- online-loop server: ingest → retrain → hot swap ----------------------
SRV2_OUT="$WORK/server2_stdout.txt"
SRV2_ERR="$WORK/server2_stderr.txt"
TRACE_OUT="$WORK/trace.json"
"$CLI" serve-tcp --kind tpch --queries 10 --scale 2 --shards 2 --trees 10 \
  --retrain-every 64 --ingest-watermark 16 \
  --metrics-port 0 --trace-out "$TRACE_OUT" \
  >"$SRV2_OUT" 2>"$SRV2_ERR" &
SRV2_PID=$!
PORT2=""
for _ in $(seq 1 600); do
  if ! kill -0 "$SRV2_PID" 2>/dev/null; then
    fail "online server died during startup: $(cat "$SRV2_ERR")"
    exit 1
  fi
  PORT2="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
           "$SRV2_OUT" | head -n 1)"
  [ -n "$PORT2" ] && break
  sleep 0.5
done
if [ -z "$PORT2" ]; then
  fail "online server never printed its listening line: $(cat "$SRV2_ERR")"
  exit 1
fi
note "online server up on port $PORT2"
MPORT="$(sed -n 's/^metrics on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
         "$SRV2_OUT" | head -n 1)"
[ -n "$MPORT" ] || fail "online server never printed its metrics line"

# Saturation: every batch is bigger than the watermark, so every record is
# answered busy — shed exactly, dropped never — and --check still passes.
# (Runs first: nothing enters the queue, so the trainer stays idle and the
# later legs see deterministic admission decisions.)
if ! "$LOADGEN" --port "$PORT2" --sessions 0 --connections 1 \
    --ingest-records 64 --ingest-batch 32 --check \
    >"$WORK/loadgen_shed.json" 2>"$WORK/loadgen_shed_err.txt"; then
  fail "saturation loadgen failed: $(cat "$WORK/loadgen_shed_err.txt")"
fi
JSON="$(tail -n 1 "$WORK/loadgen_shed.json")"
case "$JSON" in
  *'"ingest_shed":64'*) ;;
  *) fail "oversized batches were not all answered busy: $JSON" ;;
esac
case "$JSON" in
  *'"ingest_accepted":0'*) ;;
  *) fail "oversized batches were partially accepted: $JSON" ;;
esac

# Recovery: paced under-watermark batches are accepted in full — the busy
# state disappears once the offered load fits the queue again.
if ! "$LOADGEN" --port "$PORT2" --sessions 0 --connections 1 \
    --ingest-records 40 --ingest-batch 8 --ingest-rate 50 --check \
    >"$WORK/loadgen_recover.json" 2>"$WORK/loadgen_recover_err.txt"; then
  fail "recovery loadgen failed: $(cat "$WORK/loadgen_recover_err.txt")"
fi
JSON="$(tail -n 1 "$WORK/loadgen_recover.json")"
case "$JSON" in
  *'"ingest_accepted":40'*) ;;
  *) fail "under-watermark stream was not accepted in full: $JSON" ;;
esac
case "$JSON" in
  *'"ingest_shed":0'*) ;;
  *) fail "under-watermark stream was shed: $JSON" ;;
esac

# Online loop end to end: session traffic + ingest until a retrain is
# published mid-run, with exact client/server reconciliation.
if ! "$LOADGEN" --port "$PORT2" --connections 2 --sessions 8 --steps 16 \
    --ingest-rate 400 --ingest-batch 8 --ingest-until-swap --check \
    >"$WORK/loadgen_swap.json" 2>"$WORK/loadgen_swap_err.txt"; then
  fail "online-loop loadgen failed: $(cat "$WORK/loadgen_swap_err.txt")"
fi
JSON="$(tail -n 1 "$WORK/loadgen_swap.json")"
case "$JSON" in
  *'"swap_observed":true'*) ;;
  *) fail "online-loop run never observed a model swap: $JSON" ;;
esac
case "$JSON" in
  *'"errors":0'*) ;;
  *) fail "online-loop run reported errors: $JSON" ;;
esac
grep -q "counters reconcile exactly" "$WORK/loadgen_swap_err.txt" \
  || fail "online-loop reconciliation line missing"

# Scrape leg: the HTTP /metrics view of the same counters --check just
# reconciled must agree with the loadgen JSONs exactly — every record
# offered over the wire is ingested, dropped, or shed, never lost.
SCRAPE="$WORK/scrape.prom"
if ! curl -fsS --max-time 10 "http://127.0.0.1:$MPORT/metrics" \
    >"$SCRAPE" 2>"$WORK/curl_err.txt"; then
  fail "curl /metrics scrape failed: $(cat "$WORK/curl_err.txt")"
elif ! python3 - "$SCRAPE" "$WORK/loadgen_shed.json" \
    "$WORK/loadgen_recover.json" "$WORK/loadgen_swap.json" <<'PYEOF'
import json, sys

text = open(sys.argv[1]).read()

def metric(name):
    for line in text.splitlines():
        if line.startswith(name + " ") or line.startswith(name + "{"):
            return float(line.split()[-1])
    raise SystemExit(f"metric {name} missing from the scrape")

offered = accepted = dropped = shed = 0
for path in sys.argv[2:]:
    run = json.loads(open(path).read().splitlines()[-1])
    offered += run["ingest_offered"]
    accepted += run["ingest_accepted"]
    dropped += run["ingest_dropped"]
    shed += run["ingest_shed"]

srv_ingested = metric("rpe_server_records_ingested_total")
srv_dropped = metric("rpe_server_records_ingest_dropped_total")
srv_shed = metric("rpe_server_records_ingest_shed_total")
if srv_ingested + srv_dropped + srv_shed != offered:
    raise SystemExit(
        f"scrape does not reconcile: ingested={srv_ingested} "
        f"dropped={srv_dropped} shed={srv_shed} vs offered={offered}")
if (srv_ingested, srv_dropped, srv_shed) != (accepted, dropped, shed):
    raise SystemExit(
        f"scrape disagrees with loadgen: server=({srv_ingested}, "
        f"{srv_dropped}, {srv_shed}) client=({accepted}, {dropped}, {shed})")
if metric("rpe_server_request_latency_seconds_count") <= 0:
    raise SystemExit("request latency histogram never recorded")
if metric("rpe_retrains_total") <= 0:
    raise SystemExit("scrape shows zero retrains after an observed swap")
for required in ("rpe_server_frames_received_total",
                 "rpe_sessions_completed_total", "rpe_model_generation",
                 "rpe_ingest_queue_depth", "rpe_simd_tier_info",
                 "rpe_trace_spans_total", "rpe_process_resident_bytes",
                 "rpe_process_peak_resident_bytes"):
    metric(required)
print("scrape reconciles with the loadgen runs exactly")
PYEOF
then
  fail "metrics scrape reconciliation failed"
fi

# SIGTERM drains the online server too: exit 0, retrain published,
# nothing left open.
kill -TERM "$SRV2_PID"
SRV2_RC=0
wait "$SRV2_PID" || SRV2_RC=$?
SRV2_PID=""
[ "$SRV2_RC" -eq 0 ] || fail "online server exited $SRV2_RC after SIGTERM"

# The trace dump written at exit must be valid Chrome trace JSON with the
# request span chain intact: decode -> shard route -> advance root spans.
if [ ! -s "$TRACE_OUT" ]; then
  fail "trace dump missing or empty: $TRACE_OUT"
elif ! python3 - "$TRACE_OUT" <<'PYEOF'
import json, sys

events = json.load(open(sys.argv[1]))["traceEvents"]
names = {e["name"] for e in events}
for required in ("frame.decode", "shard.route", "request.advance"):
    if required not in names:
        raise SystemExit(f"span '{required}' missing from the trace dump")
for e in events:
    if e["ph"] != "X" or e["dur"] < 0:
        raise SystemExit(f"malformed trace event: {e}")
print(f"trace dump holds {len(events)} well-formed spans")
PYEOF
then
  fail "trace dump check failed"
fi

table2_value() {  # table2_value <row-label-regex>
  awk -F'|' "/$1/ {gsub(/ /,\"\",\$3); print \$3}" "$SRV2_OUT" | head -n 1
}
GENERATION="$(table2_value 'model generation')"
RETRAINS="$(table2_value 'retrains published')"
INGESTED="$(table2_value 'wire records ingested')"
SHED="$(table2_value 'wire records shed')"
ACCEPTED2="$(table2_value 'connections accepted')"
CLOSED2="$(table2_value 'connections closed')"
[ -n "$GENERATION" ] && [ "$GENERATION" != "0" ] \
  || fail "online server never published a generation: '$GENERATION'"
[ -n "$RETRAINS" ] && [ "$RETRAINS" != "0" ] \
  || fail "online server reported zero retrains: '$RETRAINS'"
[ -n "$INGESTED" ] && [ "$INGESTED" != "0" ] \
  || fail "online server ingested nothing: '$INGESTED'"
# 64 records from the saturation leg, plus whatever the swap leg shed.
[ -n "$SHED" ] && [ "$SHED" -ge 64 ] \
  || fail "online server shed $SHED records, expected >= 64"
[ -n "$ACCEPTED2" ] && [ "$ACCEPTED2" = "$CLOSED2" ] \
  || fail "online drain left connections open" \
          "(accepted=$ACCEPTED2 closed=$CLOSED2)"

if [ "$fails" -ne 0 ]; then
  note "$fails server smoke check(s) failed"
  exit 1
fi
note "all server smoke checks passed"
