#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload browse_local --seed 1 --seconds 20 --trace 0
# Run from the root of a checkout. Every build and run artefact stays
# under .bench_build/ in the checkout (Go's build cache included), or
# under $CARGO_TARGET_DIR when that is set.
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOENV=off
# go build rewrites its output on every call; replacing the binary only
# when it changed keeps 16 MB of dirty pages from being written back to
# disk in the middle of a measurement.
(cd perfbench && go build -o "$build/perfbench.new" .) >&2
if cmp -s "$build/perfbench.new" "$build/perfbench"; then
	rm "$build/perfbench.new"
else
	mv "$build/perfbench.new" "$build/perfbench"
fi
exec "$build/perfbench" "$@"
