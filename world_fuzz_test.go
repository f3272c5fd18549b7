// FuzzWorldSpec is the robustness gate for world construction: every input
// decodes into a cluster spec (any float, including NaN and ±Inf, and small
// but possibly zero or negative integer shapes), a binding and a rank
// count. Construction must either fail with a *topology.ConfigError or
// return a world whose ranks are bound to distinct cores of the machine —
// never panic, and never silently build something else than was asked.
package hierknem_test

import (
	"errors"
	"math"
	"testing"

	"hierknem"
	"hierknem/internal/topology"
)

func FuzzWorldSpec(f *testing.F) {
	// Seeds: a small valid Stremi-like shape under every binding, then one
	// input per rejection class — empty shapes, negative sizes, NaN and
	// infinite floats, too many ranks, an unknown binding — and one per
	// construction panic fixed: a negative rank count under the bycore and
	// bynode bindings must not reach make([]int, np).
	type seed struct {
		nodes, sockets, cores  int8
		np                     int16
		binding                uint8
		mem, copyBW, l3BW, l3T float64
		shmLat, netBW, netLat  float64
		perMsg, backplane      float64
		l3Size, eager          int64
	}
	ok := seed{2, 2, 3, 12, 0, 5e9, 3e9, 6e9, 0, 2e-7, 1.25e8, 5e-5, 1e-6, 0, 12 << 20, 4096}
	seeds := []seed{ok}
	for b := uint8(1); b < 4; b++ {
		s := ok
		s.binding = b
		seeds = append(seeds, s)
	}
	mut := func(fn func(*seed)) {
		s := ok
		fn(&s)
		seeds = append(seeds, s)
	}
	mut(func(s *seed) { s.nodes = 0 })
	mut(func(s *seed) { s.cores = -3 })
	mut(func(s *seed) { s.mem = math.NaN() })
	mut(func(s *seed) { s.netLat = math.Inf(1) })
	mut(func(s *seed) { s.perMsg = math.Inf(-1) })
	mut(func(s *seed) { s.backplane = -1 })
	mut(func(s *seed) { s.l3Size = -1 })
	mut(func(s *seed) { s.np = 13 })
	mut(func(s *seed) { s.binding = 4 })
	for b := uint8(0); b < 2; b++ {
		b := b
		mut(func(s *seed) { s.np, s.binding = -1, b })
	}
	for _, s := range seeds {
		f.Add(s.nodes, s.sockets, s.cores, s.np, s.binding,
			s.mem, s.copyBW, s.l3BW, s.l3T, s.shmLat, s.netBW, s.netLat, s.perMsg, s.backplane,
			s.l3Size, s.eager)
	}

	f.Fuzz(func(t *testing.T, nodes, sockets, cores int8, np int16, binding uint8,
		mem, copyBW, l3BW, l3T, shmLat, netBW, netLat, perMsg, backplane float64,
		l3Size, eager int64) {
		// Shapes stay small (at most 12 nodes of 6x12 cores) so every
		// input builds in microseconds; sign and zero still come through.
		spec := topology.Spec{
			Name:              "fuzz",
			Nodes:             int(nodes) % 13,
			SocketsPerNode:    int(sockets) % 7,
			CoresPerSocket:    int(cores) % 13,
			MemBandwidth:      mem,
			CoreCopyBandwidth: copyBW,
			L3Bandwidth:       l3BW,
			L3TotalBandwidth:  l3T,
			ShmLatency:        shmLat,
			NetBandwidth:      netBW,
			NetLatency:        netLat,
			NetPerMsgCPU:      perMsg,
			NetFullDuplex:     binding&8 != 0,
			BackplaneBW:       backplane,
			L3Size:            l3Size,
			EagerThreshold:    eager,
		}
		n := int(np)
		var w *hierknem.World
		var err error
		switch binding % 5 {
		case 0:
			w, err = hierknem.NewWorld(spec, "bycore", n)
		case 1:
			w, err = hierknem.NewWorld(spec, "bynode", n)
		case 2:
			w, err = hierknem.NewWorldPPN(spec, n)
			n *= spec.Nodes
		case 3:
			w, err = hierknem.NewWorld(spec, "bycore", spec.TotalCores())
			n = spec.TotalCores()
		default:
			w, err = hierknem.NewWorld(spec, "round-robin", n)
		}
		if err != nil {
			var ce *topology.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("spec %+v np %d binding %d: error %v (%T) is not a *topology.ConfigError", spec, np, binding, err, err)
			}
			return
		}
		if w.Size() != n {
			t.Fatalf("spec %+v binding %d: world has %d ranks, asked for %d", spec, binding, w.Size(), n)
		}
		used := make(map[int]bool, n)
		for r := 0; r < n; r++ {
			gid := w.Proc(r).Core().GID
			if gid < 0 || gid >= spec.TotalCores() || used[gid] {
				t.Fatalf("spec %+v binding %d: rank %d bound to core %d (machine has %d, used %v)",
					spec, binding, r, gid, spec.TotalCores(), used[gid])
			}
			used[gid] = true
		}
	})
}
