#!/usr/bin/env bash
# Builds the end-to-end fedserver benchmark program and runs it. Run from the
# repository root:
#
#   bash e2ebench/run.sh --workload route-read --seed 1 --seconds 10 --trace 0
#
# Every build product, Go cache and temporary file stays under .bench_build/
# in the repository root.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/fedserver || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench: run from the repository root (needs go.mod, cmd/fedserver and e2ebench/)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd e2ebench && go build -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" -root "$PWD" -out "$out" "$@"
