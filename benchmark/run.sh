#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from source
# inside the checkout it lives in and runs it with the arguments given.
# Everything it writes — Go's build cache, the binary, FileStore temp
# directories, trace files — stays under that checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps its env file and telemetry counters under the user
# config directory; point that inside the checkout too.
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
go -C "$here" build -o "$build/ladder" .
exec "$build/ladder" -outdir "$here/out" "$@"
