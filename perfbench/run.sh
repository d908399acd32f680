#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload counter-rr --seed 1 --seconds 25 --trace 0
#
# The build cache, temporary files, the binary and the traced runs' span
# files all stay under .bench_build/ in the repository root; nothing is
# downloaded.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
