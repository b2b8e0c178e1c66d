#!/usr/bin/env bash
# Builds apbench, aprouted and the benchmark from source into .bench_build
# and runs one workload:
#
#   bash perfbench/run.sh --workload sweep-quick --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds, caches and writes
# stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/apbench" || ! -f "$root/perfbench/go.mod" ]]; then
  echo "perfbench: run from the repository root (go.mod, cmd/apbench and perfbench/ must exist)" >&2
  exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off
go build -o "$out/bin/" ./cmd/apbench ./cmd/aprouted >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" "$@"
