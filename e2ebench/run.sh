#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload offline-round --seed 1 --seconds 35 --trace 0
#
# The Go build cache, module cache, tool configuration and the binary all go
# to .bench_build/ in the working directory, so a run writes nothing outside
# it. The build fails (and the script exits non-zero, printing no result)
# when the repository's sources are not next to e2ebench/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd "$here" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
