#!/usr/bin/env bash
# Builds the WARLOCK benchmark from the sources of the checkout it sits
# in and runs it with the given arguments. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload advise-cold --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare results/parent results/change
#
# Everything the build writes (Go build cache, temporary files, the
# binary) goes under .bench_build/ in the checkout; nothing is fetched
# from the network. Without the program sources next to perfbench/ the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0

bin="$out/perfbench"
(cd "$root/perfbench" && go build -buildvcs=false -o "$bin.new" . && mv "$bin.new" "$bin")

BENCH_COMMIT=unknown
if [ -e "$root/.git" ]; then
	BENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
export BENCH_COMMIT
exec "$bin" "$@"
