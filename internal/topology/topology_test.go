package topology

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func testSpec(nodes, sockets, cores int) Spec {
	return Spec{
		Name:              "test",
		Nodes:             nodes,
		SocketsPerNode:    sockets,
		CoresPerSocket:    cores,
		MemBandwidth:      10e9,
		CoreCopyBandwidth: 3e9,
		L3Bandwidth:       8e9,
		L3Size:            12 << 20,
		ShmLatency:        1e-6,
		NetBandwidth:      125e6,
		NetLatency:        50e-6,
		NetFullDuplex:     false,
		EagerThreshold:    4096,
	}
}

func mustBuild(t *testing.T, s Spec) *Machine {
	t.Helper()
	m, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildShape(t *testing.T) {
	m := mustBuild(t, testSpec(4, 2, 3))
	if len(m.Nodes) != 4 {
		t.Fatalf("nodes = %d, want 4", len(m.Nodes))
	}
	if got := m.Spec.TotalCores(); got != 24 {
		t.Fatalf("total cores = %d, want 24", got)
	}
	// Global core ids are dense and consistent.
	for gid := 0; gid < 24; gid++ {
		c := m.Core(gid)
		if c.GID != gid {
			t.Fatalf("core %d has GID %d", gid, c.GID)
		}
		wantNode := gid / 6
		if c.NodeID != wantNode {
			t.Fatalf("core %d on node %d, want %d", gid, c.NodeID, wantNode)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	bad := testSpec(0, 2, 3)
	if _, err := Build(bad); err == nil {
		t.Fatal("Build accepted zero nodes")
	}
	bad = testSpec(2, 2, 3)
	bad.MemBandwidth = -1
	if _, err := Build(bad); err == nil {
		t.Fatal("Build accepted negative bandwidth")
	}
}

// TestSpecValidateFields has one row per numeric field: a value Validate
// must reject (naming the field), and for optional fields the zero that
// keeps its documented meaning and must still pass.
func TestSpecValidateFields(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		field string
		bad   func(*Spec)
		zero  func(*Spec) // nil: 0 is not a valid value for the field
	}{
		{"Nodes", func(s *Spec) { s.Nodes = -1 }, nil},
		{"SocketsPerNode", func(s *Spec) { s.SocketsPerNode = 0 }, nil},
		{"CoresPerSocket", func(s *Spec) { s.CoresPerSocket = -2 }, nil},
		{"MemBandwidth", func(s *Spec) { s.MemBandwidth = inf }, nil},
		{"CoreCopyBandwidth", func(s *Spec) { s.CoreCopyBandwidth = 0 }, nil},
		{"NetBandwidth", func(s *Spec) { s.NetBandwidth = nan }, nil},
		{"L3Bandwidth", func(s *Spec) { s.L3Bandwidth = -1 }, func(s *Spec) { s.L3Bandwidth = 0 }},
		{"L3TotalBandwidth", func(s *Spec) { s.L3TotalBandwidth = nan }, func(s *Spec) { s.L3TotalBandwidth = 0 }},
		{"L3Size", func(s *Spec) { s.L3Size = -1 }, func(s *Spec) { s.L3Size = 0 }},
		{"ShmLatency", func(s *Spec) { s.ShmLatency = -inf }, func(s *Spec) { s.ShmLatency = 0 }},
		{"NetLatency", func(s *Spec) { s.NetLatency = nan }, func(s *Spec) { s.NetLatency = 0 }},
		{"NetPerMsgCPU", func(s *Spec) { s.NetPerMsgCPU = -1e-6 }, func(s *Spec) { s.NetPerMsgCPU = 0 }},
		{"BackplaneBW", func(s *Spec) { s.BackplaneBW = -1 }, func(s *Spec) { s.BackplaneBW = 0 }},
		{"EagerThreshold", func(s *Spec) { s.EagerThreshold = -1 }, func(s *Spec) { s.EagerThreshold = 0 }},
	}
	for _, c := range cases {
		t.Run(c.field, func(t *testing.T) {
			s := testSpec(2, 2, 2)
			c.bad(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate accepted bad %s", c.field)
			}
			if !strings.Contains(err.Error(), c.field) {
				t.Fatalf("error %q does not name %s", err, c.field)
			}
			if c.zero != nil {
				s := testSpec(2, 2, 2)
				c.zero(&s)
				if err := s.Validate(); err != nil {
					t.Fatalf("Validate rejected %s = 0: %v", c.field, err)
				}
			}
		})
	}
}

func TestHalfVsFullDuplexNIC(t *testing.T) {
	s := testSpec(2, 1, 2)
	s.NetFullDuplex = false
	m := mustBuild(t, s)
	if m.Nodes[0].NicTx != m.Nodes[0].NicRx {
		t.Fatal("half-duplex NIC should alias TX and RX")
	}
	s.NetFullDuplex = true
	m = mustBuild(t, s)
	if m.Nodes[0].NicTx == m.Nodes[0].NicRx {
		t.Fatal("full-duplex NIC should have distinct TX and RX")
	}
}

func TestDistanceLevels(t *testing.T) {
	m := mustBuild(t, testSpec(2, 2, 2))
	// node0: socket0 {0,1} socket1 {2,3}; node1: {4,5},{6,7}
	cases := []struct{ a, b, want int }{
		{0, 0, DistSameCore},
		{0, 1, DistSameSocket},
		{0, 2, DistSameNode},
		{0, 3, DistSameNode},
		{0, 4, DistRemote},
		{3, 7, DistRemote},
	}
	for _, c := range cases {
		if got := Distance(m.Core(c.a), m.Core(c.b)); got != c.want {
			t.Errorf("Distance(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestByCoreBinding(t *testing.T) {
	m := mustBuild(t, testSpec(2, 1, 4))
	b, err := ByCore(m, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(m); err != nil {
		t.Fatal(err)
	}
	// Ranks 0-3 on node 0, ranks 4-5 on node 1.
	for r := 0; r < 4; r++ {
		if b.Core(m, r).NodeID != 0 {
			t.Fatalf("rank %d not on node 0", r)
		}
	}
	for r := 4; r < 6; r++ {
		if b.Core(m, r).NodeID != 1 {
			t.Fatalf("rank %d not on node 1", r)
		}
	}
}

func TestByNodeBinding(t *testing.T) {
	m := mustBuild(t, testSpec(3, 1, 2))
	b, err := ByNode(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(m); err != nil {
		t.Fatal(err)
	}
	wantNodes := []int{0, 1, 2, 0, 1}
	for r, want := range wantNodes {
		if got := b.Core(m, r).NodeID; got != want {
			t.Fatalf("rank %d on node %d, want %d", r, got, want)
		}
	}
}

func TestByNodeSkipsExhaustedNodes(t *testing.T) {
	// Asymmetric usage is impossible with identical nodes, but the full
	// machine forces wraparound with skipping when np == total.
	m := mustBuild(t, testSpec(2, 1, 3))
	b, err := ByNode(m, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(m); err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for r := 0; r < 6; r++ {
		counts[b.Core(m, r).NodeID]++
	}
	if counts[0] != 3 || counts[1] != 3 {
		t.Fatalf("per-node counts = %v, want 3 each", counts)
	}
}

func TestBindingOverflow(t *testing.T) {
	m := mustBuild(t, testSpec(2, 1, 2))
	if _, err := ByCore(m, 5); err == nil {
		t.Fatal("ByCore accepted np > cores")
	}
	if _, err := ByNode(m, 5); err == nil {
		t.Fatal("ByNode accepted np > cores")
	}
}

func TestValidateRejectsDuplicates(t *testing.T) {
	m := mustBuild(t, testSpec(2, 1, 2))
	b := Custom("dup", []int{0, 0})
	if err := b.Validate(m); err == nil {
		t.Fatal("Validate accepted duplicate core binding")
	}
	b = Custom("oob", []int{0, 99})
	if err := b.Validate(m); err == nil {
		t.Fatal("Validate accepted out-of-range core")
	}
}

func TestLeadersAndGroups(t *testing.T) {
	m := mustBuild(t, testSpec(3, 1, 2))
	b, _ := ByNode(m, 6)
	groups := b.RanksByNode(m)
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	// bynode: node0 {0,3}, node1 {1,4}, node2 {2,5}
	if groups[0][0] != 0 || groups[0][1] != 3 {
		t.Fatalf("node0 ranks = %v", groups[0])
	}
	leaders := b.Leaders(m)
	want := []int{0, 1, 2}
	for i := range want {
		if leaders[i] != want[i] {
			t.Fatalf("leaders = %v, want %v", leaders, want)
		}
	}
}

func TestPhysicalOrderClusters(t *testing.T) {
	m := mustBuild(t, testSpec(2, 2, 2))
	b, _ := ByNode(m, 8)
	order := b.PhysicalOrder(m)
	// Consecutive entries must never go backwards in (node, socket).
	for i := 1; i < len(order); i++ {
		a := b.Core(m, order[i-1])
		c := b.Core(m, order[i])
		if a.NodeID > c.NodeID {
			t.Fatalf("physical order visits node %d after %d", c.NodeID, a.NodeID)
		}
		if a.NodeID == c.NodeID && a.Socket.ID > c.Socket.ID {
			t.Fatalf("physical order visits socket %d after %d on node %d",
				c.Socket.ID, a.Socket.ID, a.NodeID)
		}
	}
}

func TestCrossNodeEdges(t *testing.T) {
	m := mustBuild(t, testSpec(4, 1, 4))
	b, _ := ByCore(m, 16)

	rankOrder := make([]int, 16)
	for i := range rankOrder {
		rankOrder[i] = i
	}
	// by-core: rank order already clusters nodes -> 4 crossing edges.
	if got := CrossNodeEdges(m, b, rankOrder); got != 4 {
		t.Fatalf("bycore rank-ring crossings = %d, want 4", got)
	}

	bn, _ := ByNode(m, 16)
	// by-node binding with rank-ordered ring: every edge crosses nodes.
	if got := CrossNodeEdges(m, bn, rankOrder); got != 16 {
		t.Fatalf("bynode rank-ring crossings = %d, want 16", got)
	}
	// ...but the physical order restores the minimum.
	if got := CrossNodeEdges(m, bn, bn.PhysicalOrder(m)); got != 4 {
		t.Fatalf("bynode physical-ring crossings = %d, want 4", got)
	}
}

func TestCacheTouchAndResidency(t *testing.T) {
	m := mustBuild(t, testSpec(1, 1, 2))
	s := m.Nodes[0].Sockets[0]
	s.Touch(1, 4<<20)
	if !s.Resident(1) {
		t.Fatal("buffer 1 should be resident")
	}
	// Oversized buffers are never resident.
	s.Touch(2, 64<<20)
	if s.Resident(2) {
		t.Fatal("oversized buffer marked resident")
	}
	// Filling the cache evicts the oldest entry.
	s.Touch(3, 6<<20)
	s.Touch(4, 6<<20) // 4+6+6 > 12 MB: buffer 1 evicted
	if s.Resident(1) {
		t.Fatal("buffer 1 should have been evicted")
	}
	if !s.Resident(4) {
		t.Fatal("buffer 4 should be resident")
	}
}

func TestReadBandwidthUsesL3WhenResident(t *testing.T) {
	m := mustBuild(t, testSpec(1, 1, 2))
	s := m.Nodes[0].Sockets[0]
	spec := &m.Spec
	if got := s.ReadBandwidth(spec, 7); got != spec.CoreCopyBandwidth {
		t.Fatalf("cold read bw = %g, want core ceiling %g", got, spec.CoreCopyBandwidth)
	}
	s.Touch(7, 1<<20)
	if got := s.ReadBandwidth(spec, 7); got != spec.L3Bandwidth {
		t.Fatalf("warm read bw = %g, want L3 %g", got, spec.L3Bandwidth)
	}
}

// Property: ByCore and ByNode always produce valid (injective, in-range)
// bindings whose physical order has the minimal number of cross-node ring
// edges (= number of occupied nodes, when more than one node is occupied).
func TestQuickBindingsValid(t *testing.T) {
	f := func(nodes8, socks8, cores8, np16 uint8) bool {
		nodes := int(nodes8%6) + 1
		socks := int(socks8%3) + 1
		cores := int(cores8%4) + 1
		total := nodes * socks * cores
		np := int(np16)%total + 1
		m, err := Build(testSpec(nodes, socks, cores))
		if err != nil {
			return false
		}
		for _, mk := range []func(*Machine, int) (*Binding, error){ByCore, ByNode} {
			b, err := mk(m, np)
			if err != nil || b.Validate(m) != nil {
				return false
			}
			occupied := 0
			for _, g := range b.RanksByNode(m) {
				if len(g) > 0 {
					occupied++
				}
			}
			cross := CrossNodeEdges(m, b, b.PhysicalOrder(m))
			if occupied == 1 && cross != 0 {
				return false
			}
			if occupied > 1 && cross != occupied {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
