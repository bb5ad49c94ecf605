#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload pack-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (binary, Go build cache,
# temporary files, spans) stays under .bench_build in the checkout. The
# build needs the repository's root module next to perfbench/, so the
# script fails, printing no result, in a directory that holds only the
# benchmark.
set -euo pipefail
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod at $root; the benchmark builds the repository it sits in" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
# The Go command's caches, temporary files and user config (which holds
# its telemetry counters) all go under .bench_build too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$bench_dir" && HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" go build -o "$out/perfbench" .) >&2
PERFBENCH_COMMIT=none
if [ -e "$root/.git" ]; then
	PERFBENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)"
fi
PERFBENCH_SOURCE_DIGEST="$(cd "$root" && find . -path ./.bench_build -prune -o -path ./.git -prune -o \( -name '*.go' -o -name go.mod \) -type f -print | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
export PERFBENCH_COMMIT PERFBENCH_SOURCE_DIGEST
cd "$root"
exec "$out/perfbench" "$@"
