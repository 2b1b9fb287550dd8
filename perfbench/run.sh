#!/usr/bin/env bash
# Builds the monitoring daemon and the benchmark program from this checkout
# into .bench_build/, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload overlap-dcl --seed 1 --seconds 45 --trace 0
#
# Run it from the root of the checkout. Everything the build and the runs
# write (Go build cache, binaries, stores, logs) stays under .bench_build/.
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/dclserved" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a dominantlink checkout (cmd/dclserved not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
# HOME and XDG_* keep the toolchain's config and telemetry files inside.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local

go build -o "$out/dclserved" ./cmd/dclserved >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" -daemon "$out/dclserved" -work "$out" "$@"
