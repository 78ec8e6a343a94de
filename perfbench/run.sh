#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root.  The binary, the Go build cache and the
# traced pass's span files go under $CARGO_TARGET_DIR (default
# .bench_build), so the run writes nothing outside the checkout.  Without
# the repository's sources next to perfbench/ the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/config/go/telemetry"
# Telemetry off: the go command would otherwise keep counters under the
# user's config directory and may start a background upload process.
echo off >"$out/config/go/telemetry/mode"
export XDG_CONFIG_HOME="$out/config"
export GOCACHE="$out/go-cache"
export GOPATH="$out/gopath"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --trace-out "$out/perfbench-traces" "$@"
