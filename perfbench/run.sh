#!/usr/bin/env bash
# Builds locshortd and the perfbench program from the checkout this is
# run in, then runs perfbench with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload warm-hit --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --rounds 3 --seconds 5
#
# Everything the build and the runs leave behind goes to .bench_build/ in
# the checkout: the Go build cache, the two binaries, the daemons' working
# directories, result files and trace files.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off \
	GOTELEMETRY=off CGO_ENABLED=0
go build -o "$out/bin/locshortd" ./cmd/locshortd
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" --root "$root" --daemon "$out/bin/locshortd" "$@"
