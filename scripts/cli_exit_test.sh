#!/usr/bin/env bash
# CLI exit-code contract tests (wired into ctest as `cli_exit_codes`):
#
#   1. snapshot-load / serve-tcp --model on a corrupt, truncated, or
#      missing .rpsn must exit nonzero with the Status on stderr — and
#      must fail fast, before any workload runs.
#   2. A malformed or out-of-range flag value, an unknown flag, a stray
#      positional argument or an unknown --pool value exits 2 with a
#      pointer at the docs, before any workload runs.
#   3. serve-tcp with the snapshot-write failpoint armed at 100% via
#      RPE_FAILPOINTS, fed records by rpe_loadgen until a retrain is
#      published, must still drain to exit zero, keep serving on the
#      published generations, and report exact nonzero failure/retry
#      counts.
#   4. A malformed RPE_FAILPOINTS spec is diagnosed, ignored, and must
#      not turn into silent fault injection.
#   5. `run` with a record the record element cannot carry (a --tag over
#      the 256-byte label cap) exits 1 with the InvalidArgument naming
#      the field and the cap, and writes no file.
#
# Usage: cli_exit_test.sh <path-to-rpe_cli> <path-to-rpe_loadgen>
set -u

CLI="${1:?usage: cli_exit_test.sh <path-to-rpe_cli> <path-to-rpe_loadgen>}"
LOADGEN="${2:?usage: cli_exit_test.sh <path-to-rpe_cli> <path-to-rpe_loadgen>}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/rpe_cli_exit.XXXXXX")"
SRV_PID=""
cleanup() {
  [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

fails=0
note() { printf '%s\n' "$*"; }
fail() { printf 'FAIL: %s\n' "$*"; fails=$((fails + 1)); }

# expect_err <expected-status-substr> <cmd...>: nonzero exit + Status text
# on stderr.
expect_err() {
  local needle="$1"; shift
  local err="$WORK/stderr.txt"
  if "$@" >"$WORK/stdout.txt" 2>"$err"; then
    fail "exit 0 from: $*"
    return
  fi
  if ! grep -q "$needle" "$err"; then
    fail "stderr of '$*' lacks '$needle': $(cat "$err")"
  fi
}

# --- corrupt / truncated / missing snapshot inputs ------------------------
CORRUPT="$WORK/corrupt.rpsn"
printf 'RPSN garbage garbage garbage garbage garbage' > "$CORRUPT"
TRUNC="$WORK/trunc.rpsn"
head -c 20 "$CORRUPT" > "$TRUNC"
MISSING="$WORK/no_such_file.rpsn"

for f in "$CORRUPT" "$TRUNC"; do
  expect_err "InvalidArgument" "$CLI" snapshot-load --in "$f"
done
expect_err "IOError" "$CLI" snapshot-load --in "$MISSING"

# serve-tcp must reject a bad --model up front (fail-fast: it returns
# within the preload, so a tiny workload config keeps it honest), before
# the socket ever binds, so nothing is listening when the Status lands on
# stderr. --model always maps the file.
for f in "$CORRUPT" "$TRUNC"; do
  expect_err "InvalidArgument" \
    "$CLI" serve-tcp --kind tpch --queries 2 --scale 1 --model "$f"
done
expect_err "IOError" \
  "$CLI" serve-tcp --kind tpch --queries 2 --scale 1 --model "$MISSING"

# serve-tcp flag contract: malformed or out-of-range values exit 2 with a
# pointer at the docs, before any workload work starts.
expect_err "invalid --port" \
  "$CLI" serve-tcp --kind tpch --queries 2 --scale 1 --port 70000
expect_err "invalid --port" \
  "$CLI" serve-tcp --kind tpch --queries 2 --scale 1 --port banana
# --shards is the IO-thread count: one past the 256 cap would start one
# OS thread per unit.
expect_err "invalid --shards" \
  "$CLI" serve-tcp --kind tpch --queries 2 --scale 1 --shards 257
expect_err "invalid --shards" \
  "$CLI" serve-tcp --kind tpch --queries 2 --scale 1 --shards 0
"$CLI" serve-tcp --kind tpch --queries 2 --scale 1 --port 70000 \
  >/dev/null 2>&1
[ $? -eq 2 ] || fail "serve-tcp bad --port did not exit 2"

# expect_flag_err <flag> <cmd...>: exit 2 naming the flag and the docs.
# Every numeric flag goes through the same strict parse, so a value that
# is not a number fails here instead of aborting on an uncaught exception
# (after the workload already ran, in the --trees case).
expect_flag_err() {
  local flag="$1"; shift
  local err="$WORK/stderr.txt"
  "$@" >"$WORK/stdout.txt" 2>"$err"
  local rc=$?
  [ "$rc" -eq 2 ] || fail "exit $rc (expected 2) from: $*"
  grep -q "invalid --$flag value" "$err" && grep -q "docs/CLI.md" "$err" \
    || fail "stderr of '$*' lacks the --$flag hint: $(cat "$err")"
}
expect_flag_err trees \
  "$CLI" serve-tcp --queries 4 --scale 1 --trees banana
expect_flag_err queries "$CLI" serve-tcp --queries banana
expect_flag_err scale "$CLI" serve-tcp --queries 4 --scale x
# One past the cap: the pool would start one OS thread per unit.
expect_flag_err threads "$CLI" serve-tcp --queries 4 --scale 1 --threads 257

# expect_arg_err <arg> <cmd...>: an argument the command does not read
# exits 2 naming it and the docs, before any workload work (which logs a
# "workload ..." line) or record load (which would exit 1). The serve-tcp
# cases run under `timeout`: a server that accepted the argument would
# otherwise serve until killed.
expect_arg_err() {
  local arg="$1"; shift
  local err="$WORK/stderr.txt"
  "$@" >"$WORK/stdout.txt" 2>"$err"
  local rc=$?
  [ "$rc" -eq 2 ] || fail "exit $rc (expected 2) from: $*"
  grep -qF -- "$arg" "$err" && grep -q "docs/CLI.md" "$err" \
    || fail "stderr of '$*' does not name '$arg' and the docs: $(cat "$err")"
  if grep -q "workload" "$err"; then
    fail "'$*' started workload work before rejecting '$arg'"
  fi
}
expect_arg_err --mmap \
  timeout 60 "$CLI" serve-tcp --kind tpch --queries 2 --scale 1 --mmap
# --shards sets the IO threads; there is no separate --io-threads flag.
expect_arg_err --io-threads \
  timeout 60 "$CLI" serve-tcp --kind tpch --queries 2 --scale 1 --io-threads 2
expect_arg_err --bogus "$CLI" train --records "$MISSING" --bogus 1
expect_arg_err "'thre'" "$CLI" train --records "$MISSING" --pool thre
expect_arg_err "'thre'" \
  timeout 60 "$CLI" serve-tcp --kind tpch --queries 2 --scale 1 --pool thre
expect_arg_err "'stray'" "$CLI" inspect --records "$MISSING" stray

# --- a record the element cannot carry is refused, not written -----------
LONG_TAG="$(printf 'x%.0s' $(seq 1 300))"
"$CLI" run --kind tpch --queries 10 --scale 2 --tag "$LONG_TAG" \
  --out "$WORK/long_tag.rpsn" >"$WORK/stdout.txt" 2>"$WORK/stderr.txt"
RC=$?
[ "$RC" -eq 1 ] || fail "run with a 300-byte --tag exited $RC (expected 1)"
grep -q "InvalidArgument.*tag.*256-byte cap" "$WORK/stderr.txt" \
  || fail "run with a 300-byte --tag lacks the Status: $(cat "$WORK/stderr.txt")"
for f in "$WORK"/long_tag.rpsn*; do
  [ -e "$f" ] && fail "refused record batch left a file: $f"
done

# --- serve-tcp under a 100% snapshot-write fault --------------------------
OUT="$WORK/serve_tcp.txt"
ERR="$WORK/serve_tcp_err.txt"
RPE_FAILPOINTS="snapshot.write=always" \
  "$CLI" serve-tcp --kind tpch --queries 8 --scale 2 --trees 5 \
  --retrain-every 8 --snapshot-out "$WORK/snap.rpsn" >"$OUT" 2>"$ERR" &
SRV_PID=$!
PORT=""
for _ in $(seq 1 600); do
  kill -0 "$SRV_PID" 2>/dev/null || break
  PORT="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
          "$OUT" | head -n 1)"
  [ -n "$PORT" ] && break
  sleep 0.2
done
if [ -z "$PORT" ]; then
  fail "serve-tcp never listened under snapshot.write=always: $(cat "$ERR")"
else
  # Stream records until the trainer publishes a retrain; every publish
  # tries (and fails) to write the snapshot.
  "$LOADGEN" --port "$PORT" --sessions 0 --connections 1 \
    --ingest-rate 400 --ingest-batch 8 --ingest-until-swap --check \
    >"$WORK/loadgen.json" 2>"$WORK/loadgen_err.txt" \
    || fail "loadgen failed against the faulted server:
$(cat "$WORK/loadgen_err.txt")"
  kill -TERM "$SRV_PID"
  SRV_RC=0
  wait "$SRV_PID" || SRV_RC=$?
  SRV_PID=""
  if [ "$SRV_RC" -ne 0 ]; then
    fail "serve-tcp exited $SRV_RC under snapshot.write=always:
$(cat "$ERR")"
  fi
  grep -q "failpoints armed: snapshot.write" "$ERR" \
    || fail "armed-failpoint banner missing from stderr"
  # The summary must carry exact, nonzero failure and retry counts, and
  # retrains must still have been published (serving degraded, not down).
  awk -F'|' '/snapshot write failures/ {gsub(/ /,"",$3); print $3}' "$OUT" \
    | grep -qE '^[1-9][0-9]*$' \
    || fail "snapshot write failures not reported nonzero: $(cat "$OUT")"
  awk -F'|' '/snapshot write retries/ {gsub(/ /,"",$3); print $3}' "$OUT" \
    | grep -qE '^[1-9][0-9]*$' \
    || fail "snapshot write retries not reported nonzero"
  awk -F'|' '/retrains published/ {gsub(/ /,"",$3); print $3}' "$OUT" \
    | grep -qE '^[1-9][0-9]*$' \
    || fail "no retrain published under snapshot-write fault"
  # Neither the target nor a temp file beside it.
  for f in "$WORK"/snap.rpsn*; do
    [ -e "$f" ] && fail "failed snapshot write left a file: $f"
  done
fi

# --- malformed RPE_FAILPOINTS is diagnosed and ignored --------------------
if ! RPE_FAILPOINTS="snapshot.write=exploded" \
    "$CLI" snapshot-load --in "$MISSING" 2>"$ERR"; then
  grep -q "RPE_FAILPOINTS ignored" "$ERR" \
    || fail "malformed RPE_FAILPOINTS not diagnosed: $(cat "$ERR")"
  grep -q "failpoints armed" "$ERR" \
    && fail "malformed RPE_FAILPOINTS still armed something"
else
  fail "snapshot-load on a missing file exited zero"
fi

if [ "$fails" -ne 0 ]; then
  note "$fails CLI exit-code check(s) failed"
  exit 1
fi
note "all CLI exit-code checks passed"
