#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in and runs it.
#
#   bash e2ebench/run.sh --workload flow-quick --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under <checkout>/.bench_build.
# Outside a checkout of the program (no go.mod next to e2ebench/) it exits
# non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ]; then
	echo "e2ebench: no go.mod in $root: not a checkout of the program" >&2
	exit 1
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its config and local telemetry under the user
# config directory; point that into the checkout as well.
export XDG_CONFIG_HOME="$out/config"
# The program has no external modules: never fetch a toolchain or a module.
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

# The layer probe calls internal packages directly; if a refactor changed
# them, build without it and report those per-layer metrics as absent.
cd "$here"
if ! go build -tags e2elayers -o "$out/e2ebench" . 2>"$out/probe-build.log"; then
	echo "e2ebench: layer probe does not build (see $out/probe-build.log); building without it" >&2
	go build -o "$out/e2ebench" .
fi
cd "$root"
exec "$out/e2ebench" --root "$root" "$@"
