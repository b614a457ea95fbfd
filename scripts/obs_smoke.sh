#!/usr/bin/env bash
# CI smoke for the observability layer: boot a demo server, run a
# query, scrape the `metrics` verb and assert the exposition parses
# (every line is `name{label=value,...} number`) with at least one
# query-latency histogram sample, then assert `EXPLAIN ANALYZE`
# answers a profile frame with the lifecycle stages. Finally the
# flight-recorder loop: `history` answers the run we just made, the
# same trace id is visible to plain SQL over `sys.queries`, and
# `profile <trace>` renders the retained tree. Last, one store behind
# every door: `stats` fields equal their `metrics` lines, and an
# unloaded relation takes its `mwtj_storage_*` series with it. Expects
# the release binary (cargo build --release -p mwtj-server).
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=./target/release/mwtj-server
ADDR=${MWTJ_OBS_SMOKE_ADDR:-127.0.0.1:7414}

SERVER_LOG=$(mktemp)
# --slow-query-ms 1: every demo run clears the threshold, so the
# recorder retains its profile and `profile <trace>` has something
# to render.
"$BIN" --listen "$ADDR" --demo --slow-query-ms 1 >"$SERVER_LOG" 2>&1 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -f "$SERVER_LOG"' EXIT

# Bounded poll for readiness: fail loudly (with the server log) if the
# server dies or never answers, instead of limping into later commands.
READY=0
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  if "$BIN" client "$ADDR" ping >/dev/null 2>&1; then READY=1; break; fi
  sleep 0.1
done
if [ "$READY" -ne 1 ]; then
  echo "obs smoke: server on $ADDR never became ready; server log:"
  cat "$SERVER_LOG"
  exit 1
fi

SQL="SELECT x.a, y.b FROM r x, s y WHERE x.a <= y.a"

# Plain EXPLAIN answers the plan without executing.
EXPLAIN_OUT=$("$BIN" client "$ADDR" explain "$SQL")
grep -q '^ok trace=' <<<"$EXPLAIN_OUT" \
  || { echo "obs smoke: explain missing trace id"; echo "$EXPLAIN_OUT"; exit 1; }
grep -q '^plan: ours:' <<<"$EXPLAIN_OUT" \
  || { echo "obs smoke: explain missing plan line"; echo "$EXPLAIN_OUT"; exit 1; }

# A real run, then scrape the registry.
"$BIN" client "$ADDR" run ours "$SQL" >/dev/null

METRICS=$("$BIN" client "$ADDR" metrics)
[[ ${METRICS%%$'\n'*} == 'ok format=text' ]] \
  || { echo "obs smoke: bad metrics header"; echo "$METRICS"; exit 1; }

# Every exposition line must parse as `name[{labels}] number`.
BAD=$(tail -n +2 <<<"$METRICS" \
  | grep -cEv '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]+(\.[0-9e+-]+)?$' || true)
[ "$BAD" -eq 0 ] \
  || { echo "obs smoke: $BAD unparseable exposition line(s)"; echo "$METRICS"; exit 1; }

LATENCY_COUNT=$(sed -n 's/^mwtj_query_latency_ms_count{method=ours} //p' <<<"$METRICS")
[ -n "$LATENCY_COUNT" ] && [ "$LATENCY_COUNT" -ge 1 ] \
  || { echo "obs smoke: no query latency samples"; echo "$METRICS"; exit 1; }

grep -q '^mwtj_queries_total{method=ours} ' <<<"$METRICS" \
  || { echo "obs smoke: missing query counter"; echo "$METRICS"; exit 1; }

# The JSON variant answers the same registry.
"$BIN" client "$ADDR" stats json | grep -q 'mwtj_queries_total' \
  || { echo "obs smoke: stats json missing counters"; exit 1; }

# EXPLAIN ANALYZE executes and renders the per-stage profile tree.
ANALYZE_OUT=$("$BIN" client "$ADDR" run "EXPLAIN ANALYZE $SQL")
grep -q 'analyze=true' <<<"$ANALYZE_OUT" \
  || { echo "obs smoke: explain analyze not analyzed"; echo "$ANALYZE_OUT"; exit 1; }
for STAGE in plan admission execute job0/map; do
  grep -q "$STAGE" <<<"$ANALYZE_OUT" \
    || { echo "obs smoke: profile missing stage $STAGE"; echo "$ANALYZE_OUT"; exit 1; }
done

# The flight recorder answers over the wire: the newest history entry
# is a completed run whose trace id plain SQL can find in sys.queries.
HISTORY=$("$BIN" client --history 5 "$ADDR")
grep -q '^ok entries=' <<<"$HISTORY" \
  || { echo "obs smoke: bad history header"; echo "$HISTORY"; exit 1; }
TRACE=$(sed -n '2s/^trace=\([0-9][0-9]*\) .*/\1/p' <<<"$HISTORY")
[ -n "$TRACE" ] \
  || { echo "obs smoke: history carried no trace id"; echo "$HISTORY"; exit 1; }
grep -q "^trace=$TRACE outcome=ok " <<<"$HISTORY" \
  || { echo "obs smoke: newest history entry not ok"; echo "$HISTORY"; exit 1; }

# The same trace id through the ordinary SQL path — a theta join
# between two sys relations, served like any other query.
SYS_OUT=$("$BIN" client "$ADDR" run ours \
  "SELECT q.trace_id, q.outcome FROM sys.queries q, sys.scheduler s WHERE q.granted_units <= s.budget")
grep -q "^$TRACE,ok\$" <<<"$SYS_OUT" \
  || { echo "obs smoke: trace $TRACE missing from sys.queries"; echo "$SYS_OUT"; exit 1; }

# Its retained profile renders the lifecycle tree.
PROFILE=$("$BIN" client --profile "$TRACE" "$ADDR")
grep -q "^ok trace=$TRACE" <<<"$PROFILE" \
  || { echo "obs smoke: no retained profile for trace $TRACE"; echo "$PROFILE"; exit 1; }
grep -q 'execute' <<<"$PROFILE" \
  || { echo "obs smoke: profile missing execute stage"; echo "$PROFILE"; exit 1; }

# Unknown trace ids answer a typed error, not a crash.
if "$BIN" client --profile 999999999 "$ADDR" >/dev/null 2>&1; then
  echo "obs smoke: bogus profile id must answer err"; exit 1
fi

# One store behind both doors: the `stats` reply and the `metrics`
# exposition are read back to back on an idle server and must agree.
STATS=$("$BIN" client "$ADDR" stats)
METRICS=$("$BIN" client "$ADDR" metrics)
for PAIR in 'hits=mwtj_plan_cache_lookups_total{result=hit}' \
            'task_attempts=mwtj_task_attempts_total' \
            'zone_rows_pruned=mwtj_zone_rows_pruned_total'; do
  FIELD=${PAIR%%=*} SERIES=${PAIR#*=}
  WANT=$(grep -o " $FIELD=[0-9]*" <<<"$STATS" | cut -d= -f2)
  GOT=$(grep -F "$SERIES " <<<"$METRICS" | cut -d' ' -f2)
  [ -n "$WANT" ] && [ "$WANT" = "${GOT:-0}" ] \
    || { echo "obs smoke: stats $FIELD=$WANT but $SERIES=${GOT:-0}"; exit 1; }
done

# Pulled, never copied: an unloaded relation takes its series with it.
grep -q '^mwtj_storage_columns{relation=t} ' <<<"$METRICS" \
  || { echo "obs smoke: no storage series for t"; echo "$METRICS"; exit 1; }
"$BIN" client "$ADDR" unload t >/dev/null
if "$BIN" client "$ADDR" metrics | grep '^mwtj_storage_.*{relation=t}'; then
  echo "obs smoke: unloaded relation t still has storage series"; exit 1
fi

"$BIN" client "$ADDR" shutdown >/dev/null
wait "$SERVER_PID"
trap - EXIT
rm -f "$SERVER_LOG"
echo "obs smoke: exposition parses, latency count=$LATENCY_COUNT, explain analyze profiled, sys.queries sees trace $TRACE, stats = metrics"
