#!/usr/bin/env bash
# Builds the thermbal benchmark and the thermservd server from this
# checkout's sources, then runs the benchmark with the given arguments:
#
#   bash thermbench/bench.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
#   bash thermbench/bench.sh all --seed 1 --seconds 20   # every workload
#
# Run it from the repository root. Everything it builds and writes goes
# under $CARGO_TARGET_DIR (default .bench_build) in the checkout, the Go
# build cache included, so nothing outside the checkout is touched.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod

(cd "$root/thermbench" && go build -o "$out/bin/thermbench" . && go build -o "$out/bin/thermservd" thermbal/cmd/thermservd) >&2

bench=("$out/bin/thermbench")
tail=(-servd "$out/bin/thermservd" -out "$out/results")
if [ "${1:-}" = all ]; then
	shift
	for w in $("${bench[@]}" list); do
		"${bench[@]}" --workload "$w" "$@" "${tail[@]}"
	done
	exit 0
fi
exec "${bench[@]}" "$@" "${tail[@]}"
