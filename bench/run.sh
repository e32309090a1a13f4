#!/usr/bin/env bash
# Builds bench/gpubench from the checkout this script sits in and runs it
# with the given arguments from the checkout's root. Everything the build
# and the run write stays under .bench_build/ in that root.
#
#   bash bench/run.sh --workload fig1-fixed --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/gpubench" ./gpubench)
cd "$root"
exec "$out/gpubench" "$@"
