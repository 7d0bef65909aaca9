#!/usr/bin/env bash
# Builds gapd and the benchmark from the source tree this script sits in,
# then runs the benchmark with the given arguments:
#
#   bash gapbench/run.sh --workload cas_hits --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays inside the tree, under
# $CARGO_TARGET_DIR when it is set (a path relative to the tree root),
# else under .bench_build.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
for need in go.mod cmd/gapd internal/jobs internal/serve; do
	if [[ ! -e "$root/$need" ]]; then
		echo "gapbench: $root lacks $need; run from a checkout of the gapd source tree" >&2
		exit 2
	fi
done

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOMODCACHE="$build/gomod"
# The go command keeps its telemetry counters under the user config
# directory; point that into the build directory too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root" && go build -o "$build/gapd" ./cmd/gapd)
(cd "$here" && go build -o "$build/gapbench" .)
exec "$build/gapbench" -gapd "$build/gapd" -build "$build" "$@"
