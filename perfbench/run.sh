#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload plan-mix --seed 1 --seconds 10 --trace 0
# Run from the repository root. The build cache and binary live under
# $CARGO_TARGET_DIR (default .bench_build) so nothing is written outside
# the checkout, and the module proxy is off: the benchmark needs only the
# standard library and this repository.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --span-dir "$out/spans" "$@"
