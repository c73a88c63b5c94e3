#!/usr/bin/env bash
# Builds the perfbench driver from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload ring-scale --seed 1 --seconds 10 --trace 0
#
# Every build artefact (binary, Go build cache, temp files) lands under
# $CARGO_TARGET_DIR (default .bench_build) at the repository root, so a
# run reads and writes nothing outside the checkout. Build output goes to
# standard error; standard output carries only the benchmark's report,
# whose last line is the JSON result.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"

export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod XDG_CONFIG_HOME=$build/config
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

go -C "$here" build -o "$build/perfbench" . >&2
cd "$root"
exec "$build/perfbench" --trace-dir "$build" "$@"
