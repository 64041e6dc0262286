#!/usr/bin/env bash
# Builds perfbench from the checkout this file sits in and runs it from
# the checkout's root with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the run's scratch files all stay in
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout, and no
# module is fetched: the benchmark module replaces repro with ../.
set -euo pipefail
cd "$(dirname "$0")/.."
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -scratch "$out/tmp" "$@"
