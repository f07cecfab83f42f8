#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given flags. Run from the repository root:
#
#   bash perfbench/run.sh --workload ten-update --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, temp dirs,
# durable data dirs, span files) stays under .bench_build (or
# $CARGO_TARGET_DIR when set) in the working directory.
set -euo pipefail
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/home" "$out/tmp"
export TMPDIR=$out/tmp
(
	cd "$root/perfbench"
	# The module needs nothing from the network: repro is a local replace.
	HOME=$out/home GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOWORK=off GOFLAGS= \
		GOTOOLCHAIN=local GOPROXY=off go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
