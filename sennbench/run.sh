#!/usr/bin/env bash
# Builds senn-serverd and sennbench from the checkout this script sits in,
# then runs sennbench with the given arguments, e.g.
#
#   bash sennbench/run.sh --workload serve-knn --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache, stores and traces stay under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
# Keep the Go toolchain's caches, temporary files and telemetry counters
# inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd "$root" && go build -o "$out/bin/senn-serverd" ./cmd/senn-serverd) >&2
(cd "$root/sennbench" && go build -o "$out/bin/sennbench" .) >&2
exec "$out/bin/sennbench" -root "$root" -daemon "$out/bin/senn-serverd" "$@"
