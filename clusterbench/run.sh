#!/usr/bin/env bash
# Builds edennode and the cluster benchmark from the checkout it is run
# in, then runs the benchmark. Run from the repository root:
#
#   bash clusterbench/run.sh --workload durable-write --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout, including the Go build cache.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/edennode || ! -f clusterbench/go.mod ]]; then
	echo "clusterbench: run from the root of an eden checkout" >&2
	exit 2
fi

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/clusterbench" "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go build -o "$out/bin/edennode" ./cmd/edennode
(cd clusterbench && go build -o "$out/bin/clusterbench" .)
exec "$out/bin/clusterbench" -bin "$out/bin/edennode" -work "$out/clusterbench" "$@"
