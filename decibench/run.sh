#!/usr/bin/env bash
# Builds the decibench harness from source and runs one workload:
#
#   bash decibench/run.sh --workload analytics --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Every build and run artefact (Go build
# cache, binary, datasets, span files) stays under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/mod"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export GOENV=off
export CGO_ENABLED=0

go -C "$here" build -o "$out/decibench" . >&2
exec "$out/decibench" --root "$root" "$@"
