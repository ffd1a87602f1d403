#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it. Run from the repository root:
#
#   bash bench/run.sh --workload table4_cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache and
# scratch space, the binary, the generated designs and the span files.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp CGO_ENABLED=0
export GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
export BENCH_BUILD_DIR=$out

go -C "$root/bench" build -o "$out/fastcppr-bench" .
exec "$out/fastcppr-bench" "$@"
