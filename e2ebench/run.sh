#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from the
# repository root; every argument is passed on to the benchmark:
#
#   bash e2ebench/run.sh --workload explore --seed 1 --seconds 22 --trace 0
#
# The build cache, the binary, span dumps and repeat records all stay in
# .bench_build under the current directory; so do the Go command's module
# path and its per-user configuration and telemetry files.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --out "$out" "$@"
