#!/usr/bin/env bash
# Obs smoke: a short two-process socket scenario with the full
# observability surface on, asserting that
#   - the worker's -metrics-addr endpoint serves non-empty Prometheus
#     text exposition while traffic flows,
#   - both processes write valid Chrome trace_event JSON (-trace),
#   - the scenario's metrics_out dump is a non-empty JSON object,
#   - an -exp run that builds its own federation (ablation-fictive)
#     traces its rounds under the knob flags,
# after first checking that bad knob values exit 2 naming their JSON
# field, before any run starts.
# Run from the repository root (CI does; see .github/workflows/ci.yml).
set -euo pipefail

workdir="$(mktemp -d)"
worker_pid=""
cleanup() {
  if [[ -n "$worker_pid" ]] && kill -0 "$worker_pid" 2>/dev/null; then
    kill -TERM "$worker_pid" 2>/dev/null || true
    wait "$worker_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "obs_smoke: building"
go build -o "$workdir/ciabench" ./cmd/ciabench
go build -o "$workdir/ciaworker" ./cmd/ciaworker

# expect_bad_input FIELD ARGS...: ciabench must exit 2, name FIELD on
# stderr and print nothing on stdout (no run started).
expect_bad_input() {
  local field="$1" status=0
  shift
  "$workdir/ciabench" "$@" >"$workdir/bad.out" 2>"$workdir/bad.err" || status=$?
  [[ "$status" -eq 2 ]] || { cat "$workdir/bad.err"; echo "obs_smoke: ciabench $* exited $status, want 2"; exit 1; }
  grep -q "field \"$field\"" "$workdir/bad.err" || { cat "$workdir/bad.err"; echo "obs_smoke: ciabench $* did not name field $field"; exit 1; }
  [[ ! -s "$workdir/bad.out" ]] || { cat "$workdir/bad.out"; echo "obs_smoke: ciabench $* started a run"; exit 1; }
}

echo "obs_smoke: rejecting bad inputs"
expect_bad_input compression -exp table2 -compress 4
cat >"$workdir/bad-scenario.json" <<EOF
{"protocol": "fed", "dataset": "movielens", "family": "gmf", "transport": "inproc", "transport_addr": "$workdir/none.sock"}
EOF
expect_bad_input transport_addr -scenario "$workdir/bad-scenario.json"

echo "obs_smoke: starting traced worker"
"$workdir/ciaworker" -network unix -addr auto -ready "$workdir/ready" \
  -metrics-addr 127.0.0.1:0 -trace "$workdir/worker-trace.json" \
  >"$workdir/worker.log" 2>&1 &
worker_pid=$!

for _ in $(seq 1 100); do
  [[ -f "$workdir/ready" ]] && break
  kill -0 "$worker_pid" 2>/dev/null || { cat "$workdir/worker.log"; echo "obs_smoke: worker died before ready"; exit 1; }
  sleep 0.1
done
[[ -f "$workdir/ready" ]] || { echo "obs_smoke: worker never became ready"; exit 1; }
read -r _net sock <"$workdir/ready"
metrics_url="$(sed -n 's/^ciaworker: metrics at \(http:[^ ]*\)$/\1/p' "$workdir/worker.log")"
[[ -n "$metrics_url" ]] || { cat "$workdir/worker.log"; echo "obs_smoke: worker printed no metrics address"; exit 1; }

echo "obs_smoke: running socket scenario against $sock"
cat >"$workdir/scenario.json" <<EOF
{
  "name": "obs-smoke",
  "protocol": "fed",
  "dataset": "movielens",
  "family": "gmf",
  "rounds": 2,
  "seed": 7,
  "transport": "socket",
  "transport_addr": "$sock",
  "metrics_out": "$workdir/metrics.json"
}
EOF
"$workdir/ciabench" -scenario "$workdir/scenario.json" -trace "$workdir/bench-trace.json"

echo "obs_smoke: probing worker metrics endpoint $metrics_url"
exposition="$(curl -sSf "$metrics_url")"
[[ -n "$exposition" ]] || { echo "obs_smoke: empty exposition"; exit 1; }
grep -q '^# TYPE rpc_conn_errors_total' <<<"$exposition" || {
  echo "obs_smoke: exposition missing rpc counters:"; echo "$exposition"; exit 1; }

echo "obs_smoke: tracing an ablation under the knob flags"
"$workdir/ciabench" -exp ablation-fictive -rounds 2 -byz kind=sign-flip,frac=0.2,seed=1 \
  -trace "$workdir/exp-trace.json"

echo "obs_smoke: draining worker"
kill -TERM "$worker_pid"
wait "$worker_pid"
worker_pid=""

go run scripts/checktrace.go -metrics "$workdir/metrics.json" \
  "$workdir/bench-trace.json" "$workdir/worker-trace.json" "$workdir/exp-trace.json"
echo "obs_smoke: ok"
