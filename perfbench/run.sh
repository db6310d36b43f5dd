#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload echo-hx --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and span files all stay under
# $CARGO_TARGET_DIR (default .bench_build) in the current directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/go-cache GOPATH=$out/go-path GOMODCACHE=$out/go-path/pkg/mod
export XDG_CONFIG_HOME=$out/config GOENV=off GOTOOLCHAIN=local
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
