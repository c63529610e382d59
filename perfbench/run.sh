#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#   bash perfbench/run.sh --workload offline-nr-k4 --seed 1 --seconds 10 --trace 0
# Run it from the root of the tree. Build outputs and the Go build cache go
# under .bench_build/ at the root, so nothing is written outside the tree.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --root "$root" "$@"
