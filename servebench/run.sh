#!/usr/bin/env bash
# Builds servebench from the checkout's sources and runs it. Run from the
# repository root, e.g.
#
#   bash servebench/run.sh --workload small_direct --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) goes
# under $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/home/go" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$src" build -o "$out/servebench" .
exec "$out/servebench" "$@"
