#!/usr/bin/env bash
# Builds perfbench from the source tree around it and runs it with the
# arguments given, from the repository root:
#
#   bash perfbench/run.sh --workload bcast-large --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root: the Go build cache, temporary files, the binary and the profiles.
# Without the simulator's sources next to it (../go.mod) the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's local telemetry counters in out.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off
if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
cd "$root"
exec "$out/perfbench" "$@"
