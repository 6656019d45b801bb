#!/usr/bin/env bash
# Builds layerbench from the checkout's sources and runs it, forwarding
# every argument. Run from the repository root:
#
#   bash layerbench/run.sh --workload serve-edit --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and span files stay under
# .bench_build/ in the checkout; nothing is fetched.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/layerbench"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's local telemetry counters in
# the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOWORK=off GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
(cd "$root/layerbench" && go build -o "$out/layerbench" .) >&2
exec "$out/layerbench" -out "$out" "$@"
