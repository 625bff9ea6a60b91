#!/usr/bin/env bash
# distributed_smoke.sh — end-to-end proof of the distributed sweep path,
# run by the `distributed-smoke` CI job and reproducible locally with:
#
#     scripts/distributed_smoke.sh
#
# A sweep runs locally or on one -coord endpoint: an alscoord with
# registered workers, or a single alsd. It asserts:
#
#   1. Determinism + golden gate: an `experiments -coord` sweep of the
#      quick TABLE II suite through alscoord with two registered workers
#      renders byte-identical -format json output to a single-process
#      -jobs 4 run (cells are pure functions of their content hash), and
#      the exact golden-metrics check passes through it.
#   2. Failover + resume: with one registered worker SIGKILLed mid-sweep,
#      the coordinator drains it and fails its cells over, the output is
#      still byte-identical, and the -out store is complete — a -resume
#      re-run executes nothing and prints identical bytes.
#   3. Distributed tracing: a traced sweep through -coord at one alsd
#      produces ONE trace ID shared by client and worker (and stays
#      byte-identical to the untraced single-process reference), the
#      merged tracecat render shows the whole causal chain — dispatch
#      submits, worker queue waits, per-generation evaluation, store puts,
#      critical path — and the golden gate passes through that alsd.
#   4. Durability: an alsd SIGKILLed with accepted /v2/jobs submissions
#      still queued replays its write-ahead log on restart, every accepted
#      submission completes, and each result is byte-identical to a fresh
#      daemon recomputing the same requests (runtime_ns is the only
#      wall-clock field and is excluded; see docs/STORAGE.md).
#   5. Backend matrix: the same sweep through -coord at an alsd running
#      the embedded (binary-log) store backend stays byte-identical to the
#      single-process reference.
#   6. One store per cluster (runs right after leg 1's sweep, while both
#      registered workers are up): a second run of the suite through
#      alscoord with no -out renders byte-identical output, and neither
#      worker's /healthz stats move (no submission reaches a worker, so
#      nothing is executed): the coordinator answers every cell from the
#      results it already holds.
#
# Requires: go, curl, jq. Ports default to 8491-8495 (W1_PORT..W4_PORT,
# COORD_PORT).
set -euo pipefail
cd "$(dirname "$0")/.."

W1_PORT=${W1_PORT:-8491}
W2_PORT=${W2_PORT:-8492}
W3_PORT=${W3_PORT:-8493}
W4_PORT=${W4_PORT:-8494}
COORD_PORT=${COORD_PORT:-8495}
W1=http://127.0.0.1:$W1_PORT
W2=http://127.0.0.1:$W2_PORT
W3=http://127.0.0.1:$W3_PORT
W4=http://127.0.0.1:$W4_PORT
COORD=http://127.0.0.1:$COORD_PORT

work=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$work"
}
trap cleanup EXIT

say() { echo "== $*"; }

go build -o "$work/alsd" ./cmd/alsd
go build -o "$work/experiments" ./cmd/experiments
go build -o "$work/tracecat" ./cmd/tracecat
go build -o "$work/alscoord" ./cmd/alscoord

wait_ready() { # url
  for _ in $(seq 1 100); do
    curl -fsS "$1/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "worker $1 never became ready" >&2
  return 1
}

start_worker() { # port store-file [extra alsd flags...]; appends the pid to pids
  local port=$1 sf=$2
  shift 2
  "$work/alsd" -addr "127.0.0.1:$port" -store "$work/$sf" -workers 2 "$@" \
    >"$work/$sf.log" 2>&1 &
  pids+=($!)
}

# The quick suite: TABLE II at quick scale (35 cells, 7 circuits x 5
# methods). Machine-readable output omits wall clock, so bytes depend only
# on the job specs.
suite=(-exp table2 -format json -seed 1)

say "reference: single-process -jobs 4 run"
"$work/experiments" "${suite[@]}" -jobs 4 -out "$work/single" >"$work/single.json"

# ---- cluster mode: registration, -coord sweep, mid-sweep worker kill -----
# The coordinator owns the fleet: workers register with it (-register),
# heartbeat, and the experiments client names only the coordinator. The
# short heartbeat cadence makes a silent worker expire within ~a second.
say "cluster mode: alscoord + 2 registered workers"
"$work/alscoord" -addr "127.0.0.1:$COORD_PORT" -store "$work/coord.jsonl" \
  -hb-interval 300ms -expire-after 2 >"$work/coord.log" 2>&1 &
pids+=($!)
COORD_PID=${pids[-1]}
wait_ready "$COORD"
start_worker "$W1_PORT" cw1.jsonl -register "$COORD"
CW1_PID=${pids[-1]}
start_worker "$W2_PORT" cw2.jsonl -register "$COORD"
CW2_PID=${pids[-1]}
wait_ready "$W1"
wait_ready "$W2"
for _ in $(seq 1 100); do
  [ "$(curl -fsS "$COORD/cluster/workers" | jq -re length)" = 2 ] && break
  sleep 0.1
done
[ "$(curl -fsS "$COORD/cluster/workers" | jq -re length)" = 2 ] \
  || { echo "workers never registered with the coordinator" >&2; cat "$work/coord.log" >&2; exit 1; }
say "both workers registered; -coord sweep must match the single-process reference"
"$work/experiments" "${suite[@]}" -coord "$COORD" >"$work/coord.json" 2>"$work/coordrun.log"
cmp "$work/single.json" "$work/coord.json" \
  || { echo "-coord run differs from single-process run" >&2; exit 1; }
say "cluster-mode output byte-identical"

# ---- one store per cluster: a repeat sweep reaches no worker -------------
worker_stats() { # submitted and executed counts of both registered workers
  for w in "$W1" "$W2"; do curl -fsS "$w/healthz" | jq -c '.stats | {submitted, executed}'; done
}
say "repeat sweep through alscoord: every cell from the coordinator's results"
before=$(worker_stats)
"$work/experiments" "${suite[@]}" -coord "$COORD" >"$work/coord2.json" 2>"$work/coordrun2.log"
cmp "$work/single.json" "$work/coord2.json" \
  || { echo "repeat -coord run differs from single-process run" >&2; exit 1; }
after=$(worker_stats)
[ "$before" = "$after" ] \
  || { echo "repeat sweep reached the workers: $before -> $after" >&2; exit 1; }
say "repeat sweep byte-identical; worker stats unchanged:" $after

say "golden-metrics gate through the coordinator"
"$work/experiments" -check testdata/golden_quick.json -coord "$COORD" \
  2>&1 | tee "$work/golden.log"
grep -q "golden check passed" "$work/golden.log"

# Fresh seed (nothing cached anywhere) and a heavier per-cell budget so the
# sweep is long enough to lose a worker halfway through. W2 is SIGKILLed as
# soon as its own stats show it computed a cell of this sweep — genuinely
# mid-run — and the coordinator must fail its cells over to W1.
say "cluster failover: SIGKILL one registered worker mid-sweep"
coord_suite=(-exp table2 -format json -seed 77 -vectors 32768 -iters 8)
"$work/experiments" "${coord_suite[@]}" -jobs 4 >"$work/single77.json"
base=$(curl -fsS "$W2/healthz" | jq -re .stats.executed)
(
  while :; do
    ex=$(curl -fsS "$W2/healthz" 2>/dev/null | jq -re .stats.executed) || exit 0
    if [ "$ex" -gt "$base" ]; then
      kill -9 "$CW2_PID"
      echo "killed registered worker (pid $CW2_PID) after $((ex - base)) cell(s) of this sweep"
      exit 0
    fi
    sleep 0.05
  done
) &
killer=$!
"$work/experiments" "${coord_suite[@]}" -coord "$COORD" -out "$work/coord77" \
  >"$work/coord77.json" 2>"$work/coord77.log"
wait "$killer"
cmp "$work/single77.json" "$work/coord77.json" \
  || { echo "cluster failover run differs from single-process run" >&2; exit 1; }
dropped=$(curl -fsS "$COORD/metrics" | awk '$1 == "als_cluster_workers_expired_total" {print $2}')
[ "${dropped:-0}" -ge 1 ] \
  || { echo "coordinator never drained the killed worker (als_cluster_workers_expired_total=$dropped)" >&2; exit 1; }
[ "$(curl -fsS "$COORD/cluster/workers" | jq -re length)" = 1 ] \
  || { echo "killed worker still in the registry" >&2; exit 1; }
say "cluster failover byte-identical; killed worker drained from the registry"

say "resume after failover: every cell must already be in the store"
"$work/experiments" "${coord_suite[@]}" -coord "$COORD" -resume \
  -out "$work/coord77" >"$work/resume.json" 2>"$work/resume.log"
grep -q "0 executed, 35 cached" "$work/resume.log" \
  || { echo "-resume after failover recomputed cells:" >&2; cat "$work/resume.log" >&2; exit 1; }
cmp "$work/single77.json" "$work/resume.json"

say "stopping the cluster"
kill -TERM "$CW1_PID" "$COORD_PID"
wait "$CW1_PID" "$COORD_PID" 2>/dev/null || true

# ---- fleet trace: -coord at one alsd --------------------------------------
# alscoord roots its own lane traces, so the client-to-worker trace runs
# against an alsd endpoint directly.
say "traced sweep through -coord at one alsd on :$W1_PORT"
start_worker "$W1_PORT" w1.jsonl
wait_ready "$W1"
"$work/experiments" "${suite[@]}" -coord "$W1" -out "$work/dist" \
  -trace-out "$work/dist.trace.jsonl" \
  >"$work/dist.json" 2>"$work/dist.log"
cmp "$work/single.json" "$work/dist.json" \
  || { echo "traced -coord JSON differs from single-process run" >&2; exit 1; }
say "byte-identical json output confirmed (tracing did not perturb results)"

say "one trace ID spans client and worker"
tid=$(grep -oE '^trace [0-9a-f]{32}$' "$work/dist.log" | head -1 | awk '{print $2}')
[ -n "$tid" ] || { echo "client never printed its trace ID" >&2; cat "$work/dist.log" >&2; exit 1; }
curl -fsS "$W1/debug/traces?trace=$tid&format=jsonl" >"$work/worker.trace.jsonl"
grep -q "$tid" "$work/worker.trace.jsonl" \
  || { echo "worker $W1 holds no spans of trace $tid" >&2; exit 1; }
say "rendering the merged timeline through tracecat"
"$work/tracecat" -trace "$tid" "$work/dist.trace.jsonl" "$W1/debug/traces" >"$work/trace.txt"
for span in dispatch.sweep dispatch.submit queue.wait job.run \
            als.generation store.put "critical path"; do
  grep -q "$span" "$work/trace.txt" \
    || { echo "timeline is missing $span:" >&2; cat "$work/trace.txt" >&2; exit 1; }
done
say "timeline complete: submit -> queue-wait -> evaluate -> store"

say "golden-metrics gate through one alsd"
"$work/experiments" -check testdata/golden_quick.json -coord "$W1" \
  2>&1 | tee "$work/golden1.log"
grep -q "golden check passed" "$work/golden1.log"
kill -TERM "${pids[-1]}"
wait "${pids[-1]}" 2>/dev/null || true

# ---- durability: SIGKILL mid-queue, WAL replay on restart ----------------
# One slow worker and heavy per-job budgets (quick-scale jobs finish in
# milliseconds — too fast to lose; at 8 iterations these took ~50 ms, so
# all four had finished before the kill) so most submissions are still
# queued at the kill. The restarted daemon must replay its WAL, finish every
# accepted job, and each result must be byte-identical to a fresh daemon
# recomputing the same requests (ids and wall-clock timestamps differ by
# design; the result payload may not, except runtime_ns).
wal_seeds=(101 102 103 104)
wal_body() { # seed
  printf '{"circuit":"Adder16","metric":"nmed","budget":0.0244,"seed":%d,"vectors":32768,"iterations":100}' "$1"
}

poll_done() { # url seed out-file; resubmits (dedup/cache hit) until done
  local v
  for _ in $(seq 1 600); do
    v=$(curl -fsS -X POST "$1/v2/jobs" -d "$(wal_body "$2")")
    if [ "$(jq -re .status <<<"$v")" = done ]; then
      jq -S '.result | del(.runtime_ns)' <<<"$v" >>"$3"
      return 0
    fi
    sleep 0.1
  done
  echo "job with seed $2 on $1 never finished" >&2
  return 1
}

say "durability: SIGKILL alsd with jobs queued, restart, WAL replay"
"$work/alsd" -addr "127.0.0.1:$W3_PORT" -store "$work/crash.jsonl" \
  -wal auto -workers 1 >"$work/crash1.log" 2>&1 &
W3_PID=$!
pids+=("$W3_PID")
wait_ready "$W3"
for seed in "${wal_seeds[@]}"; do
  curl -fsS -X POST "$W3/v2/jobs" -d "$(wal_body "$seed")" | jq -re .hash >/dev/null
done
kill -9 "$W3_PID"
wait "$W3_PID" 2>/dev/null || true
say "killed the daemon with ${#wal_seeds[@]} accepted submissions; restarting on the same store + WAL"

"$work/alsd" -addr "127.0.0.1:$W3_PORT" -store "$work/crash.jsonl" \
  -wal auto -workers 1 >"$work/crash2.log" 2>&1 &
pids+=($!)
wait_ready "$W3"
grep -q '"wal opened"\|wal opened' "$work/crash2.log" \
  || { echo "restarted daemon never opened the WAL" >&2; cat "$work/crash2.log" >&2; exit 1; }

for seed in "${wal_seeds[@]}"; do
  poll_done "$W3" "$seed" "$work/replayed.results"
done
replayed=$(curl -fsS "$W3/metrics" | awk '$1 == "als_wal_replayed_total" {print $2}')
[ "${replayed:-0}" -ge 1 ] \
  || { echo "restart replayed no WAL records (als_wal_replayed_total=$replayed)" >&2; exit 1; }
say "all ${#wal_seeds[@]} submissions completed after restart ($replayed replayed from the WAL)"

say "durability reference: fresh daemon recomputes the same requests"
start_worker "$W4_PORT" crashref.jsonl
wait_ready "$W4"
for seed in "${wal_seeds[@]}"; do
  poll_done "$W4" "$seed" "$work/recomputed.results"
done
cmp "$work/replayed.results" "$work/recomputed.results" \
  || { echo "replayed results differ from a fresh recompute" >&2; exit 1; }
say "replayed results byte-identical to fresh recompute"
kill -TERM "${pids[@]: -2}" 2>/dev/null || true
for pid in "${pids[@]: -2}"; do wait "$pid" 2>/dev/null || true; done

# ---- backend matrix: the quick suite through an embedded-backend alsd ----
say "backend matrix: -coord run on an embedded-store alsd"
start_worker "$W1_PORT" w1.emb -store-backend embedded
wait_ready "$W1"
"$work/experiments" "${suite[@]}" -coord "$W1" >"$work/embedded.json"
cmp "$work/single.json" "$work/embedded.json" \
  || { echo "embedded-backend run differs from single-process run" >&2; exit 1; }
[ "$(head -c 9 "$work/w1.emb")" = "ALSEMBED1" ] \
  || { echo "w1.emb is not an embedded-format store" >&2; exit 1; }
say "embedded backend byte-identical"
kill -TERM "${pids[-1]}" 2>/dev/null || true
wait "${pids[-1]}" 2>/dev/null || true

say "distributed smoke passed"
