#!/usr/bin/env bash
# Builds the benchmark and the gputlbd daemon from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload repro-sweep --seed 1 --seconds 25 --trace 0
#
# Every build product, Go cache and trace file stays under .bench_build/ in
# the current directory. Without the repository's Go sources beside
# perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
out="$build/perfbench"
mkdir -p "$out" "$build/tmp"

export TMPDIR="$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export CGO_ENABLED=0

go -C perfbench build -o "$out/perfbench" .
go -C perfbench build -o "$out/gputlbd" gputlb/cmd/gputlbd

exec "$out/perfbench" -gputlbd "$out/gputlbd" -out "$out" "$@"
