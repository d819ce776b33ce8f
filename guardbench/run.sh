#!/usr/bin/env bash
# Builds the guard benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash guardbench/run.sh --workload duty --seed 1 --seconds 15 --trace 0
#
# Build cache, binary, span dumps and journal files all live under
# .bench_build in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd guardbench && go build -o "$out/bin/guardbench" .)
exec "$out/bin/guardbench" "$@"
