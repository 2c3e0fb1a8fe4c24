#!/bin/sh
# Smoke-test the serving tier end to end, in two phases.
#
# Phase 1, tdmroutd: build it, boot it on a local port, drive one job
# through submit -> long-poll -> solution over HTTP with retain=1, re-solve an
# ECO edit through the delta endpoint against the retained warm session,
# reconcile /metrics, then drain with SIGTERM and require exit status 0.
#
# Phase 2, tdmcoord: boot a 3-backend fleet behind the coordinator, solve
# a reference job on a bare backend, then run the identical job through
# the coordinator and kill -9 the backend it landed on mid-LR. The
# coordinator must re-dispatch, answer the job's long-poll with its
# terminal status, and deliver a solution byte-identical to
# the uninterrupted reference (the replay guarantee), a resubmission must
# replay from the result cache without touching a backend, and the
# coordinator must drain cleanly on SIGTERM.
#
#   scripts/serve_smoke.sh           # default ports 18080, 18090-18093
#   SERVE_SMOKE_ADDR=127.0.0.1:9999 scripts/serve_smoke.sh
set -eu
cd "$(dirname "$0")/.."

addr=${SERVE_SMOKE_ADDR:-127.0.0.1:18080}
coord_addr=${SERVE_SMOKE_COORD_ADDR:-127.0.0.1:18090}
backend_port_base=${SERVE_SMOKE_BACKEND_PORT_BASE:-18091}
base="http://$addr"
work=$(mktemp -d)
pid=""
fleet_pids=""
cleanup() {
  [ -z "$pid" ] || kill "$pid" 2>/dev/null || true
  for p in $fleet_pids; do kill "$p" 2>/dev/null || true; done
  rm -rf "$work"
}
trap cleanup EXIT

echo "== build"
go build -o "$work/tdmroutd" ./cmd/tdmroutd
go run ./cmd/gen -name synopsys01 -scale 0.003 -o "$work/instance.txt"

echo "== start tdmroutd on $addr"
"$work/tdmroutd" -addr "$addr" -pool 2 &
pid=$!

i=0
until curl -fsS "$base/healthz" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 100 ]; then
    echo "FAIL: server never became healthy"
    exit 1
  fi
  sleep 0.1
done

echo "== submit"
accepted=$(curl -fsS -X POST -H 'Content-Type: text/plain' \
  --data-binary "@$work/instance.txt" "$base/v1/jobs?name=smoke&retain=1")
id=$(printf '%s' "$accepted" | grep -o '"id":"[^"]*"' | head -n 1 | cut -d'"' -f4)
if [ -z "$id" ]; then
  echo "FAIL: no job id in submit response: $accepted"
  exit 1
fi
echo "accepted job $id"

# wait_long BASE ID: long-poll the job (GET ?wait=1, which answers once
# the job is terminal or after the server's wait cap) until it is
# terminal, at most four times; it must end done.
wait_long() {
  _lbase=$1
  _lid=$2
  i=0
  state=""
  while [ "$i" -lt 4 ]; do
    state=$(curl -fsS --max-time 30 "$_lbase/v1/jobs/$_lid?wait=1" |
      grep -o '"state":"[a-z]*"' | head -n 1 | cut -d'"' -f4)
    case "$state" in
    done) return 0 ;;
    failed | canceled | rejected)
      echo "FAIL: job $_lid ended in state $state"
      exit 1
      ;;
    esac
    i=$((i + 1))
  done
  echo "FAIL: long-poll on job $_lid never answered a terminal state (last: ${state:-none})"
  exit 1
}

echo "== wait for completion (long-poll)"
wait_long "$base" "$id"

echo "== solution"
curl -fsS "$base/v1/jobs/$id/solution?format=text" -o "$work/solution.txt"
if ! [ -s "$work/solution.txt" ]; then
  echo "FAIL: empty solution body"
  exit 1
fi
wc -l <"$work/solution.txt" | xargs echo "solution lines:"

echo "== delta re-solve against the warm session"
accepted=$(curl -fsS -X POST -H 'Content-Type: application/json' \
  --data '{"edge_bias":[{"edge":0,"delta":1}]}' "$base/v1/jobs/$id/delta")
did=$(printf '%s' "$accepted" | grep -o '"id":"[^"]*"' | head -n 1 | cut -d'"' -f4)
if [ -z "$did" ] || [ "$did" = "$id" ]; then
  echo "FAIL: no delta job id in response: $accepted"
  exit 1
fi
echo "accepted delta job $did (base $id)"
wait_long "$base" "$did"
curl -fsS "$base/v1/jobs/$did/solution?format=text" -o "$work/delta.txt"
if ! [ -s "$work/delta.txt" ]; then
  echo "FAIL: empty delta solution body"
  exit 1
fi
wc -l <"$work/delta.txt" | xargs echo "delta solution lines:"

echo "== metrics"
curl -fsS "$base/metrics" >"$work/metrics.txt"
for want in \
  'tdmroutd_up 1' \
  'tdmroutd_draining 0' \
  'tdmroutd_jobs_accepted_total 2' \
  'tdmroutd_submit_rejected_total 0' \
  'tdmroutd_jobs_total{outcome="done"} 2' \
  'tdmroutd_jobs_running 0' \
  'tdmroutd_queue_depth 0' \
  'tdmroutd_warm_sessions 1' \
  'tdmroutd_warm_retained_total 1' \
  'tdmroutd_warm_evicted_total 0' \
  'tdmroutd_warm_dropped_total 0' \
  'tdmroutd_warm_conflict_total 0'; do
  if ! grep -Fqx "$want" "$work/metrics.txt"; then
    echo "FAIL: metrics missing line: $want"
    cat "$work/metrics.txt"
    exit 1
  fi
done

echo "== SIGTERM drain"
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
if [ "$rc" -ne 0 ]; then
  echo "FAIL: drain exited with status $rc"
  exit 1
fi

# ---------------------------------------------------------------------------
# Phase 2: coordinator chaos — kill a backend mid-job, require replay.
# ---------------------------------------------------------------------------

echo "== coordinator: build + 3-backend fleet"
go build -o "$work/tdmcoord" ./cmd/tdmcoord
host=${coord_addr%:*}
backend_flags=""
fleet=""
i=0
while [ "$i" -lt 3 ]; do
  baddr="$host:$((backend_port_base + i))"
  "$work/tdmroutd" -addr "$baddr" -pool 2 -quiet &
  bpid=$!
  fleet_pids="$fleet_pids $bpid"
  fleet="$fleet $baddr=$bpid"
  backend_flags="$backend_flags -backend http://$baddr"
  i=$((i + 1))
done
# shellcheck disable=SC2086
"$work/tdmcoord" -addr "$coord_addr" $backend_flags &
pid=$!
cbase="http://$coord_addr"

i=0
until curl -fsS "$cbase/healthz" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 100 ]; then
    echo "FAIL: coordinator never became healthy"
    exit 1
  fi
  sleep 0.1
done

# A job slow enough (a few seconds of LR) to kill its backend mid-run.
# The solver is deterministic, so the uninterrupted reference below and
# the replayed chaos run must produce byte-identical solutions.
opts="epsilon=1e-9&maxiter=300000"

echo "== coordinator: uninterrupted reference on a bare backend"
refaddr="$host:$backend_port_base"
accepted=$(curl -fsS -X POST -H 'Content-Type: text/plain' \
  --data-binary "@$work/instance.txt" "http://$refaddr/v1/jobs?name=ref&$opts")
rid=$(printf '%s' "$accepted" | grep -o '"id":"[^"]*"' | head -n 1 | cut -d'"' -f4)
wait_long "http://$refaddr" "$rid"
curl -fsS "http://$refaddr/v1/jobs/$rid/solution?format=text" -o "$work/ref.txt"

echo "== coordinator: same job through the coordinator, kill its backend mid-LR"
accepted=$(curl -fsS -X POST -H 'Content-Type: text/plain' \
  --data-binary "@$work/instance.txt" "$cbase/v1/jobs?name=chaos&$opts")
cid=$(printf '%s' "$accepted" | grep -o '"id":"[^"]*"' | head -n 1 | cut -d'"' -f4)
case "$cid" in
c*) ;;
*)
  echo "FAIL: coordinator job id $cid is not c-prefixed: $accepted"
  exit 1
  ;;
esac

victim=""
i=0
while [ -z "$victim" ]; do
  victim=$(curl -fsS "$cbase/v1/jobs/$cid" |
    grep -o '"backend":"[^"]*"' | head -n 1 | cut -d'"' -f4)
  i=$((i + 1))
  if [ "$i" -ge 100 ]; then
    echo "FAIL: job $cid never reported a backend"
    exit 1
  fi
  [ -n "$victim" ] || sleep 0.1
done
sleep 1 # let the job get a second of LR progress on the victim
# The kill must land mid-LR: the job is still running and has logged LR
# events past its "running" state event.
mid=$(curl -fsS "$cbase/v1/jobs/$cid")
mstate=$(printf '%s' "$mid" | grep -o '"state":"[a-z]*"' | head -n 1 | cut -d'"' -f4)
mevents=$(printf '%s' "$mid" | grep -o '"events":[0-9]*' | head -n 1 | cut -d: -f2)
if [ "$mstate" != running ] || [ "${mevents:-0}" -lt 2 ]; then
  echo "FAIL: job $cid is $mstate with ${mevents:-0} events at the kill; want running mid-LR"
  exit 1
fi
echo "job $cid is running with $mevents events at the kill"
vpid=""
for entry in $fleet; do
  if [ "${entry%=*}" = "$victim" ]; then vpid=${entry#*=}; fi
done
if [ -z "$vpid" ]; then
  echo "FAIL: placed backend $victim is not in the fleet: $fleet"
  exit 1
fi
echo "killing backend $victim (pid $vpid) with SIGKILL"
kill -9 "$vpid"

wait_long "$cbase" "$cid"
curl -fsS "$cbase/v1/jobs/$cid/solution?format=text" -o "$work/chaos.txt"
if ! cmp -s "$work/ref.txt" "$work/chaos.txt"; then
  echo "FAIL: replayed solution differs from the uninterrupted reference"
  exit 1
fi
echo "replayed solution is byte-identical to the reference"

echo "== coordinator: identical resubmission replays from the cache"
accepted=$(curl -fsS -X POST -H 'Content-Type: text/plain' \
  --data-binary "@$work/instance.txt" "$cbase/v1/jobs?name=cached&$opts")
hid=$(printf '%s' "$accepted" | grep -o '"id":"[^"]*"' | head -n 1 | cut -d'"' -f4)
wait_long "$cbase" "$hid"
hbackend=$(curl -fsS "$cbase/v1/jobs/$hid" |
  grep -o '"backend":"[^"]*"' | head -n 1 | cut -d'"' -f4)
if [ "$hbackend" != "cache" ]; then
  echo "FAIL: resubmission ran on $hbackend instead of the result cache"
  exit 1
fi
curl -fsS "$cbase/v1/jobs/$hid/solution?format=text" -o "$work/cached.txt"
if ! cmp -s "$work/ref.txt" "$work/cached.txt"; then
  echo "FAIL: cached solution differs from the reference"
  exit 1
fi

echo "== coordinator: metrics"
# The dead backend's breaker opens via probe failures; give it time.
i=0
while :; do
  curl -fsS "$cbase/metrics" >"$work/coord_metrics.txt"
  grep -Fqx 'tdmcoord_backends_live 2' "$work/coord_metrics.txt" && break
  i=$((i + 1))
  if [ "$i" -ge 120 ]; then
    echo "FAIL: breaker never opened for the killed backend"
    cat "$work/coord_metrics.txt"
    exit 1
  fi
  sleep 0.25
done
for want in \
  'tdmcoord_up 1' \
  'tdmcoord_backends 3' \
  'tdmcoord_backends_live 2' \
  'tdmcoord_cache_hits_total 1' \
  'tdmcoord_jobs_total{outcome="done"} 2'; do
  if ! grep -Fqx "$want" "$work/coord_metrics.txt"; then
    echo "FAIL: coordinator metrics missing line: $want"
    cat "$work/coord_metrics.txt"
    exit 1
  fi
done
retries=$(grep -o '^tdmcoord_retries_total [0-9]*' "$work/coord_metrics.txt" | cut -d' ' -f2)
if [ -z "$retries" ] || [ "$retries" -lt 1 ]; then
  echo "FAIL: tdmcoord_retries_total = ${retries:-missing}, want >= 1"
  exit 1
fi

echo "== coordinator: SIGTERM drain"
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
if [ "$rc" -ne 0 ]; then
  echo "FAIL: coordinator drain exited with status $rc"
  exit 1
fi
for entry in $fleet; do
  p=${entry#*=}
  [ "$p" = "$vpid" ] && continue
  kill -TERM "$p" 2>/dev/null || true
done

echo "serve smoke OK"
