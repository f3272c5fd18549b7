// PDES scaling benchmarks: the Fig3a acceptance workload (32-node,
// 768-process Stremi broadcast, swept over message sizes) and a
// node-confined companion workload, run under both engine modes and a sweep
// of in-window worker counts. scripts/bench.sh runs the set as interleaved
// fresh-process passes and distills results/BENCH_pdes.json via
// cmd/benchjson's pdes schema (v5), comparing best-of-pass values:
//
//   - events/op must agree exactly between serial and every parallel
//     variant — the hex-identity canary in throughput form;
//   - mode=parallel/workers=1 (the degenerate engine with no window
//     machinery) must stay within the parity margin of serial, in both
//     events/sec and allocs/op — window support must cost nothing when
//     unused;
//   - workloads whose collectives bracket their intra-node stretches (the
//     small-message Fig3a sweep point, NodeLocal) must report a nonzero
//     phased-window fraction on every workers>=2 variant — phases execute on
//     goroutines regardless of host cores, so a zero here means the brackets
//     regressed, not that the host is small; on >=4-core hosts the fraction
//     must also clear -min-phased-fraction (>50% of windows phased);
//   - on hosts with >=4 cores the NodeLocal parallel engine must reach >=2x
//     the serial events/sec; below 4 cores the speedup and fraction gates are
//     recorded as waived, like the sweep gate.
//
// The Fig3a sweep carries both regimes: the small size rides the real
// HierKNEM bracketed path (single-segment Bcast, node-confined KNEM fan-out
// under EnterNodePhase/ExitNodePhase), so its windows execute on concurrent
// workers; the large size stays above the fabric-bypass cutoff, so its
// windows stay serial by census and measure pure window overhead. NodeLocal
// brackets all its traffic and is where the speedup bar binds.
package hierknem_test

import (
	"fmt"
	"testing"

	"hierknem"
	"hierknem/internal/imb"
)

// pdesVariants is the engine matrix every PDES benchmark sweeps: the serial
// reference, the parallel engine at its default worker count, and pinned
// worker counts for the scaling curve (1 = degenerate fast path).
var pdesVariants = []struct {
	name    string
	mode    hierknem.EngineMode
	workers int
}{
	{"mode=serial", hierknem.EngineSerial, 0},
	{"mode=parallel", hierknem.EngineParallel, 0},
	{"mode=parallel/workers=1", hierknem.EngineParallel, 1},
	{"mode=parallel/workers=2", hierknem.EngineParallel, 2},
	{"mode=parallel/workers=4", hierknem.EngineParallel, 4},
}

// benchPDESVariants runs the workload under every engine variant on
// identically built worlds.
func benchPDESVariants(b *testing.B, spec hierknem.Spec, np int, run func(w *hierknem.World)) {
	for _, v := range pdesVariants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			benchDES(b,
				func() (*hierknem.World, error) {
					w, err := hierknem.NewWorld(spec, "bycore", np)
					if err != nil {
						return nil, err
					}
					w.SetEngineMode(v.mode)
					if v.workers > 0 {
						w.SetEngineWorkers(v.workers)
					}
					return w, nil
				},
				run)
		})
	}
}

// BenchmarkPDESFig3aBcast768 measures the conservative-window engine
// against the serial reference on the paper's largest broadcast
// configuration, at two sweep points. size=2KB takes the real bracketed
// HierKNEM path — inter-node forwarding first, then every node's KNEM
// fan-out as a node phase — so its windows execute on concurrent workers
// and its phased-window fraction is gated (>0 always on workers>=2, >50% on
// >=4-core hosts). size=64KB is above the fabric-bypass cutoff: unbracketed
// global traffic, serial windows by census, so its interesting numbers are
// the identity canary and the workers=1 parity bar — window support must
// not tax the reference workload.
func BenchmarkPDESFig3aBcast768(b *testing.B) {
	spec := hierknem.Stremi(32)
	mod := hierknem.ForCluster(&spec)
	mod.Opt.CacheTopology = true
	np := spec.Nodes * spec.CoresPerNode()
	for _, size := range []int64{2 << 10, 64 << 10} {
		size := size
		b.Run(fmt.Sprintf("size=%dKB", size>>10), func(b *testing.B) {
			benchPDESVariants(b, spec, np, func(w *hierknem.World) {
				hierknem.BenchBcast(w, mod, size, imb.Opts{Iterations: 4, Warmup: 1})
			})
		})
	}
}

// BenchmarkPDESNodeLocal768 measures in-window parallel execution itself:
// 768 ranks on 32 nodes run bracketed node-confined rounds (sub-eager ring
// exchange, node barrier, window-crossing compute), so nearly every window
// past the first is a phase and the 32 node domains spread across the
// workers. This is the workload the >=2x speedup bar binds to on >=4-core
// hosts.
func BenchmarkPDESNodeLocal768(b *testing.B) {
	spec := hierknem.Stremi(32)
	np := spec.Nodes * spec.CoresPerNode()
	const rounds = 24
	benchPDESVariants(b, spec, np, func(w *hierknem.World) {
		if err := nodePhaseProg(w, rounds, nil); err != nil {
			b.Fatal(err)
		}
	})
}
