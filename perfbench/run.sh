#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every build artifact (binary, Go build
# cache, temporary files) and the traced run's span files go under
# .bench_build (or $CARGO_TARGET_DIR when set), so nothing is written
# outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f perfbench/go.mod ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out="$root/$out"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp" "$out/config"

# XDG_CONFIG_HOME keeps the go command's config and telemetry counters in
# the checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
