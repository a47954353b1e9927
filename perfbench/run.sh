#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it, passing
# the arguments through:
#
#   bash perfbench/run.sh --workload design-cold --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the Go toolchain and the
# benchmark write stays under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)

(
	cd "$root/perfbench"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOENV=off \
		GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
		GOMODCACHE="$build/gopath/pkg/mod" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local \
		GOWORK=off GOTELEMETRY=off \
		go build -buildvcs=false -o "$build/perfbench" .
) >&2

TMPDIR="$build/tmp" PERFBENCH_COMMIT="$commit" exec "$build/perfbench" "$@"
