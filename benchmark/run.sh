#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to
# the benchmark. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload axes_batch --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go's build cache, the binary,
# the corpus files) stays in .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$here"
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
		XDG_CONFIG_HOME="$build/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local \
		go build -o "$build/benchmark" .
)
cd "$root"
exec "$build/benchmark" "$@"
