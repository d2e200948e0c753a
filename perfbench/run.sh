#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given,
# e.g.
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Everything it builds or writes
# stays under .bench_build/ in that checkout: the Go build cache, the
# binary and the traced-run span files.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the root of a full checkout (no go.mod or internal/ here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export XDG_CONFIG_HOME="$out/config" # where go keeps its telemetry and env files

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out/traces" "$@"
