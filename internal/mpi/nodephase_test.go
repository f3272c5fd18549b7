package mpi

import (
	"fmt"
	"testing"

	"hierknem/internal/buffer"
	"hierknem/internal/topology"
)

// phaseWorld builds a toy world with cores ranks per node over nodes nodes
// and an explicit eager threshold, for exercising the bracket placement rule
// in isolation.
func phaseWorld(t *testing.T, nodes, cores int, eager int64) *World {
	t.Helper()
	m, err := topology.Build(toySpec(nodes, 1, cores))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ByCoreBinding(m, nodes*cores)
	if err != nil {
		t.Fatal(err)
	}
	conf := toyConf()
	conf.EagerThreshold = eager
	w, err := NewWorld(m, b, conf)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestPhaseEligibleBounds is the boundary-value table for PhaseEligible:
// both size guards are strict (`<`), so a message exactly at the eager
// threshold or exactly at the fabric-bypass cutoff is already ineligible —
// at those sizes the transport installs rendezvous or fabric state.
// Singleton and cross-node communicators are excluded
// regardless of size. The thresholds are picked to isolate each bound:
// with eager at 8192 only the cutoff can exclude, with eager at 2048 only
// the threshold can.
func TestPhaseEligibleBounds(t *testing.T) {
	cases := []struct {
		name  string
		eager int64
		n     int64
		want  bool
	}{
		// eager 8192 > cutoff: the cutoff is the binding bound.
		{"under both", 8192, smallCopyCutoff - 1, true},
		{"at cutoff", 8192, smallCopyCutoff, false},
		{"over cutoff", 8192, smallCopyCutoff + 1, false},
		// eager 2048 < cutoff: the threshold is the binding bound.
		{"under eager", 2048, 2047, true},
		{"at eager", 2048, 2048, false},
		{"between eager and cutoff", 2048, smallCopyCutoff - 1, false},
		// eager == cutoff (the shipped default): both bounds coincide.
		{"default under", smallCopyCutoff, smallCopyCutoff - 1, true},
		{"default at", smallCopyCutoff, smallCopyCutoff, false},
		// tiny messages are always in.
		{"zero bytes", 8192, 0, true},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/n=%d", tc.name, tc.n), func(t *testing.T) {
			w := phaseWorld(t, 1, 2, tc.eager)
			p := w.Proc(0)
			if got := p.PhaseEligible(nodeComm(w, 0), tc.n); got != tc.want {
				t.Errorf("PhaseEligible(node comm, %d) with eager %d = %v, want %v",
					tc.n, tc.eager, got, tc.want)
			}
		})
	}

	t.Run("singleton comm", func(t *testing.T) {
		// One rank per node: the node comm is a singleton — nothing to
		// bracket, so even a 1-byte message is ineligible.
		w := phaseWorld(t, 2, 1, 8192)
		p := w.Proc(0)
		if p.PhaseEligible(nodeComm(w, 0), 1) {
			t.Error("PhaseEligible(singleton comm, 1) = true, want false")
		}
	})

	t.Run("cross-node comm", func(t *testing.T) {
		w := phaseWorld(t, 2, 2, 8192)
		p := w.Proc(0)
		if p.PhaseEligible(w.WorldComm(), 1) {
			t.Error("PhaseEligible(multi-node comm, 1) = true, want false")
		}
	})
}

// nodeComm returns a communicator of the ranks on node, in world rank order.
func nodeComm(w *World, node int) *Comm {
	var ranks []int
	for r, p := range w.procs {
		if p.core.NodeID == node {
			ranks = append(ranks, r)
		}
	}
	return w.newComm(ranks)
}

// TestNodePhaseBracketBalance pins the node-phase marker's contract: a
// nested enter and an unmatched exit panic, the exit charges one network
// latency, and inside a phase ReduceLocal charges the unloaded reduction
// rate (no memory-bus flow) and refuses a reduction at the fabric-bypass
// cutoff.
func TestNodePhaseBracketBalance(t *testing.T) {
	w := phaseWorld(t, 1, 1, 8192)
	lat := w.Machine.Spec.NetLatency
	rate := w.Conf.ReduceBandwidth
	a := func(n int) *buffer.Buffer { return buffer.NewReal(make([]byte, n)) }
	panics := func(fn func()) (ok bool) {
		defer func() { ok = recover() != nil }()
		fn()
		return false
	}
	var nested, bare, oversized bool
	var inPhase, exit, outside float64
	err := w.Run(func(p *Proc) {
		p.EnterNodePhase()
		nested = panics(p.EnterNodePhase)
		oversized = panics(func() { p.ReduceLocal(buffer.OpSum, buffer.Float64, a(smallCopyCutoff), a(smallCopyCutoff)) })
		t0 := p.Now()
		p.ReduceLocal(buffer.OpSum, buffer.Float64, a(80), a(80))
		inPhase = p.Now() - t0
		t0 = p.Now()
		p.ExitNodePhase()
		exit = p.Now() - t0
		bare = panics(p.ExitNodePhase)
		t0 = p.Now()
		p.ReduceLocal(buffer.OpSum, buffer.Float64, a(80), a(80))
		outside = p.Now() - t0
	})
	if err != nil {
		t.Fatal(err)
	}
	if !nested || !bare || !oversized {
		t.Fatalf("panics: nested enter %v, unmatched exit %v, cutoff-sized reduction %v; want all true", nested, bare, oversized)
	}
	if want := 80 / rate; inPhase != want {
		t.Errorf("node-phase reduction took %g, want the unloaded %g", inPhase, want)
	}
	if exit != lat {
		t.Errorf("ExitNodePhase took %g, want NetLatency %g", exit, lat)
	}
	if outside <= inPhase {
		t.Errorf("reduction outside a phase took %g, want more than the unloaded %g (three bus shares)", outside, inPhase)
	}
}
