package topology

import (
	"testing"
	"testing/quick"
)

func TestByCorePPNLayout(t *testing.T) {
	m := mustBuild(t, testSpec(4, 2, 3)) // 6 cores per node
	b, err := ByCorePPN(m, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(m); err != nil {
		t.Fatal(err)
	}
	// ppn=2: ranks 0,1 -> node0 cores 0,1; ranks 2,3 -> node1 cores 6,7...
	wantCores := []int{0, 1, 6, 7, 12, 13, 18, 19}
	for r, want := range wantCores {
		if b.CoreOf[r] != want {
			t.Fatalf("rank %d on core %d, want %d", r, b.CoreOf[r], want)
		}
	}
}

func TestByCorePPNBounds(t *testing.T) {
	m := mustBuild(t, testSpec(2, 1, 4))
	if _, err := ByCorePPN(m, 4, 0); err == nil {
		t.Fatal("accepted ppn=0")
	}
	if _, err := ByCorePPN(m, 4, 5); err == nil {
		t.Fatal("accepted ppn > cores per node")
	}
	if _, err := ByCorePPN(m, 9, 4); err == nil {
		t.Fatal("accepted np > nodes*ppn")
	}
}

func TestByCorePPNUniformContiguous(t *testing.T) {
	m := mustBuild(t, testSpec(3, 2, 4))
	b, err := ByCorePPN(m, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	groups := b.RanksByNode(m)
	for ni, g := range groups {
		if len(g) != 3 {
			t.Fatalf("node %d has %d ranks, want 3", ni, len(g))
		}
		for i := 1; i < len(g); i++ {
			if g[i] != g[i-1]+1 {
				t.Fatalf("node %d ranks not contiguous: %v", ni, g)
			}
		}
	}
}

// Property: ByCorePPN is always valid and places rank r on node r/ppn.
func TestQuickByCorePPN(t *testing.T) {
	f := func(nodes8, socks8, cores8, ppn8 uint8) bool {
		nodes := int(nodes8%5) + 1
		socks := int(socks8%2) + 1
		cores := int(cores8%4) + 1
		cpn := socks * cores
		ppn := int(ppn8)%cpn + 1
		np := ppn * nodes
		m, err := Build(testSpec(nodes, socks, cores))
		if err != nil {
			return false
		}
		b, err := ByCorePPN(m, np, ppn)
		if err != nil || b.Validate(m) != nil {
			return false
		}
		for r := 0; r < np; r++ {
			if b.Core(m, r).NodeID != r/ppn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestBindingsRejectNegativeNP: a negative process count must not reach
// make([]int, np); every binding rejects it with a *ConfigError.
func TestBindingsRejectNegativeNP(t *testing.T) {
	m := mustBuild(t, testSpec(2, 1, 4))
	for _, c := range []struct {
		name string
		bind func() (*Binding, error)
	}{
		{"bycore", func() (*Binding, error) { return ByCore(m, -1) }},
		{"bynode", func() (*Binding, error) { return ByNode(m, -1) }},
		{"bycore-ppn4", func() (*Binding, error) { return ByCorePPN(m, -1, 4) }},
	} {
		_, err := c.bind()
		if _, ok := err.(*ConfigError); !ok {
			t.Errorf("%s with np=-1: error %v (%T), want a *ConfigError", c.name, err, err)
		}
	}
}
