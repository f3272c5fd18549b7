#!/usr/bin/env bash
# verify.sh — the repository's full verification gate, identical to CI.
#
#   build     every package compiles
#   vet       the stock Go analyzers
#   hierlint  the simulator-invariant analyzers (cmd/hierlint):
#             determinism, requesthygiene, errcheck, bufferescape,
#             runisolation, poolreturn, tagspace, bracket (balanced
#             EnterNodePhase/ExitNodePhase collective brackets), plus the
#             hierflow interprocedural analyzers vtmono and atomicfield.
#             Runs twice (cold-ish, then warm) and prints both timings so
#             result-cache effectiveness stays visible; also gates that
#             all ten analyzers are registered.
#   test      the full suite under the race detector
#   san       the conformance/isolation suites under HIERSAN=1 (the hiersan
#             dynamic sanitizer) plus the seeded fault fixtures
#   fuzz      10s smokes each: FuzzMatch over the p2p matching machinery,
#             FuzzFabricDiff (incremental vs global fabric event logs) and
#             FuzzWorldSpec (bad specs, bindings and sizes fail with typed
#             errors, never panics)
#   bench     the perf harness (scripts/bench.sh): DES hot-path suite vs
#             checked-in baseline, fabric-allocator >=2x resource-visit
#             criterion, and the parallel sweep gate (byte-identical
#             serial/parallel stdout; >=3x speedup on >=4-core hosts)
#
# Run from anywhere; it anchors itself at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> hierlint ./..."
go build -o /tmp/hierlint.verify ./cmd/hierlint
if [ "$(/tmp/hierlint.verify -list | wc -l)" -ne 10 ]; then
  echo "hierlint: expected 10 registered analyzers" >&2
  /tmp/hierlint.verify -list >&2
  exit 1
fi
t0=$(date +%s%N)
/tmp/hierlint.verify ./...
t1=$(date +%s%N)
/tmp/hierlint.verify ./...
t2=$(date +%s%N)
echo "hierlint timing: first run $(( (t1 - t0) / 1000000 ))ms, warm-cache run $(( (t2 - t1) / 1000000 ))ms"

echo "==> go test -race ./..."
go test -race ./...

echo "==> san (HIERSAN=1 conformance + seeded faults)"
HIERSAN=1 go test ./... -run 'Conformance|Isolation'
go test ./internal/des ./internal/mpi -run 'Sanitizer|StallAutopsy|MaxTimeAbort'

echo "==> fuzz smoke (FuzzMatch, FuzzFabricDiff, FuzzWorldSpec; 10s each)"
go test ./internal/mpi -run '^$' -fuzz '^FuzzMatch$' -fuzztime 10s
go test . -run '^$' -fuzz '^FuzzFabricDiff$' -fuzztime 10s
go test . -run '^$' -fuzz '^FuzzWorldSpec$' -fuzztime 10s

echo "==> bench (DES hot path + fabric allocator + parallel sweep)"
scripts/bench.sh

echo "verify: all gates passed"
