#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; all arguments go to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload exhaust-l1 --seed 1 --seconds 18 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, else .bench_build): the Go build cache, temporary
# files, the binary and the run's scratch stores. Build output goes to
# standard error, so the result stays the last line of standard output.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/tmp" "$build/home"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -workdir "$build/work" "$@"
