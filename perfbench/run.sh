#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root; every build and run artifact stays under
# .bench_build/ there.
#
#   bash perfbench/run.sh --workload point --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare OLD NEW   # files of concatenated run output
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

sha=unknown
if [ -e "$root/.git" ]; then
	sha=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

# Keep the Go toolchain's caches and config inside the checkout and
# offline: the module has no dependencies outside this repository.
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" TMPDIR="$out/tmp" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false \
		go build -o "$out/perfbench" .
)

PERFBENCH_GIT_SHA="$sha" exec "$out/perfbench" "$@"
