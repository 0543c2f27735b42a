#!/usr/bin/env bash
# Builds the ciarec benchmark from this checkout and runs it with the
# given flags, e.g.
#
#   bash benchmark/run.sh -workload fl-table2 -seed 1 -seconds 20 -trace 0
#   bash benchmark/run.sh                  # all four workloads, untraced
#
# The Go build cache, the go command's config and telemetry, the binary,
# the result JSON and the loopback socket directory all live under
# .bench_build/ in the checkout root, so the benchmark writes nothing
# outside the checkout. The build fails (non-zero exit, no result
# printed) when the repository sources next to benchmark/ are missing.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C benchmark build -o ../.bench_build/ciarec-bench .
exec .bench_build/ciarec-bench "$@"
