#!/usr/bin/env bash
# Builds the benchmark and allocd from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload compile-k16 --seed 1 --seconds 16 --trace 0
#   bash perfbench/run.sh --workload all --out runs.jsonl
#   bash perfbench/run.sh -compare before.jsonl after.jsonl
#
# Everything the build writes, the Go build cache included, stays under
# .bench_build; the first run fills the cache and takes a few minutes.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/allocd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/allocd and perfbench/go.mod not all found)" >&2
	exit 2
fi

out=.bench_build
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" GOTMPDIR="$PWD/$out/tmp" \
	XDG_CONFIG_HOME="$PWD/$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/bin/allocd" ./cmd/allocd
(cd perfbench && go build -o "../$out/bin/perfbench" .)
exec "$out/bin/perfbench" -allocd "$out/bin/allocd" "$@"
