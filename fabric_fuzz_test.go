// FuzzFabricDiff is the differential fuzz gate for the incremental max-min
// fabric: every input decodes into a random (topology, personality,
// program) tuple, runs once under fabric.ModeGlobal — the reference that
// re-partitions and refills every component on every sync — and once under
// the default incremental mode, and fails on any event-log divergence: a
// hex-exact completion time, a rank's completion order, the final clock or
// the processed-event count. The seed corpus covers degenerate shapes and
// the Table II mixed-collective scenario (merge/split churn through the
// fabric); the personality byte swaps the collective module between
// HierKNEM and the hierarch and MVAPICH2 baselines, so their different
// leader topologies and node-phase placements are fuzzed too.
package hierknem_test

import (
	"fmt"
	"testing"

	"hierknem"
	"hierknem/internal/buffer"
	"hierknem/internal/coll"
	"hierknem/internal/fabric"
	"hierknem/internal/modules"
	"hierknem/internal/mpi"
)

const (
	fuzzMaxOps = 6
)

// fuzzOp is one step of a fuzzed program.
type fuzzOp struct {
	kind int // 0 bcast, 1 reduce, 2 allgather, 3 barrier
	size int64
	root int
}

// decodeFabricPlan turns fuzz bytes into a cluster shape, a collective
// personality and a program. Every decoded plan is valid by construction, so
// a divergence is a fabric bug, not an ill-formed input. Byte layout:
//
//	data[0]       nodes = 2 + data[0]%3
//	data[1]       ppn   = 2 + data[1]%3
//	data[2]       personality = data[2]/8%3 (0 hierknem, 1 hierarch,
//	              2 mvapich2); the low three bits are unused
//	data[3:]      (kind, size/root) byte pairs, at most fuzzMaxOps ops
func decodeFabricPlan(data []byte) (nodes, ppn, pers int, ops []fuzzOp) {
	nodes, ppn = 2, 2
	if len(data) > 0 {
		nodes = 2 + int(data[0])%3 // 2..4
	}
	if len(data) > 1 {
		ppn = 2 + int(data[1])%3 // 2..4
	}
	if len(data) > 2 {
		pers = int(data[2]) / 8 % 3
	}
	np := nodes * ppn
	for i := 3; i+1 < len(data) && len(ops) < fuzzMaxOps; i += 2 {
		ops = append(ops, fuzzOp{
			kind: int(data[i]) % 4,
			// 64B .. 128KB: spans the eager threshold and the pipeline
			// chunk sizes, so flows merge and split mid-collective.
			size: int64(1) << (6 + int(data[i+1])%12),
			root: int(data[i+1]) % np,
		})
	}
	return nodes, ppn, pers, ops
}

func phantomPerRank(np, size int) []*buffer.Buffer {
	bufs := make([]*buffer.Buffer, np)
	for i := range bufs {
		bufs[i] = buffer.NewPhantom(int64(size))
	}
	return bufs
}

// runFabricPlan executes the program on a fresh world under the given fabric
// mode and returns its event log (per-rank hex completion times per op,
// final clock, processed count).
func runFabricPlan(t *testing.T, nodes, ppn, pers int, ops []fuzzOp, mode fabric.Mode) []string {
	t.Helper()
	spec := hierknem.Stremi(nodes)
	w, err := hierknem.NewWorldPPN(spec, ppn)
	if err != nil {
		t.Fatal(err)
	}
	w.Machine.Fab.SetMode(mode)
	var mod hierknem.Module
	switch pers {
	case 1:
		mod = modules.Hierarch(modules.Quirks{})
	case 2:
		mod = modules.MVAPICH2()
	default:
		mod = hierknem.ForCluster(&spec)
	}
	np := w.Size()

	// Per-(op, rank) buffers, allocated identically for both runs.
	bufs := make([][]*buffer.Buffer, len(ops))
	rbufs := make([][]*buffer.Buffer, len(ops))
	for k, op := range ops {
		switch op.kind {
		case 0:
			bufs[k] = phantomPerRank(np, int(op.size))
		case 1:
			bufs[k] = phantomPerRank(np, int(op.size))
			rbufs[k] = phantomPerRank(np, int(op.size))
		case 2:
			bufs[k] = phantomPerRank(np, int(op.size))
			rbufs[k] = phantomPerRank(np, np*int(op.size))
		}
	}

	log := make([]string, 0, (len(ops)+1)*np+1)
	err = w.Run(func(p *mpi.Proc) {
		c := w.WorldComm()
		me := c.Rank(p)
		for k, op := range ops {
			switch op.kind {
			case 0:
				mod.Bcast(p, c, bufs[k][me], op.root)
			case 1:
				a := coll.ReduceArgs{Op: buffer.OpSum, Dtype: buffer.Float64}
				mod.Reduce(p, c, a, bufs[k][me], rbufs[k][me], op.root)
			case 2:
				mod.Allgather(p, c, bufs[k][me], rbufs[k][me])
			case 3:
				c.Barrier(p)
			}
			log = append(log, fmt.Sprintf("op%d r%d %s", k, me, hexTime(p.Now())))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	log = append(log, fmt.Sprintf("final %s %d", hexTime(w.Now()), w.Machine.Eng.Processed()))
	return log
}

func FuzzFabricDiff(f *testing.F) {
	// Seeds: degenerate shapes, then Table II-style mixed-collective churn
	// (bcast/allgather/reduce alternating across the eager threshold and
	// pipeline sizes, varying roots) on 2-4 nodes, then the baseline
	// personalities at small, node-phase-bracketed sizes.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 10})                         // 2x2, one 64KB bcast
	f.Add([]byte{1, 1, 3, 3, 0})                          // 3x3, lone barrier
	f.Add([]byte{2, 2, 7, 0, 11, 2, 5, 1, 8, 3, 0, 0, 1}) // 4x4 Table II churn: big bcast, allgather, reduce, barrier, tiny bcast
	f.Add([]byte{1, 0, 2, 2, 9, 1, 9, 2, 3, 0, 7})        // 3x2: allgather/reduce/allgather/bcast merge-split churn
	f.Add([]byte{0, 2, 0, 1, 0, 1, 11, 0, 4, 2, 2})       // 2x4: small reduce, huge reduce, bcast, allgather
	f.Add([]byte{2, 1, 1, 4, 5, 4, 0, 3, 0})              // 4x3: bcast, bcast, barrier
	f.Add([]byte{1, 2, 3, 5, 0, 4, 2, 5, 7, 0, 6})        // 3x4: reduce, bcast, reduce, bcast
	f.Add([]byte{2, 2, 5, 5, 9, 5, 3})                    // 4x4: two reduces
	f.Add([]byte{2, 1, 1, 6, 0, 6, 4, 3, 0})              // 4x3: allgathers, barrier
	f.Add([]byte{0, 0, 9, 6, 1, 0, 2, 6, 0})              // 2x2, hierarch: allgather, small bcast, allgather
	f.Add([]byte{1, 1, 10, 0, 3, 1, 4, 2, 2})             // 3x3, hierarch: small bcast/reduce/allgather
	f.Add([]byte{0, 2, 19, 0, 2, 4, 1, 0, 5})             // 2x4, mvapich2: small bcast, bcast, 2KB bcast
	f.Add([]byte{2, 2, 12, 0, 1, 6, 0, 1, 2, 3, 0})       // 4x4, hierarch: small bcast, allgather, reduce, barrier
	// Cutoff-adjacent seeds: 2KB rides the bracketed path, 4KB sits exactly
	// at the eager/fabric cutoff so its collectives must stay unbracketed.
	f.Add([]byte{0, 0, 25, 0, 5, 1, 5, 4, 2}) // 2x2, hierknem: 2KB bcast, 2KB reduce, bcast
	f.Add([]byte{1, 1, 33, 0, 6, 6, 1, 1, 5}) // 3x3, hierarch: 4KB bcast (at cutoff), allgather, 2KB reduce
	f.Add([]byte{2, 0, 43, 0, 5, 4, 6, 0, 6}) // 4x2, mvapich2: 2KB bcast, 4KB bcast twice

	f.Fuzz(func(t *testing.T, data []byte) {
		nodes, ppn, pers, ops := decodeFabricPlan(data)
		want := runFabricPlan(t, nodes, ppn, pers, ops, fabric.ModeGlobal)
		got := runFabricPlan(t, nodes, ppn, pers, ops, fabric.ModeIncremental)
		diffLogs(t, fmt.Sprintf("fabric diff %dx%d p%d %v", nodes, ppn, pers, ops), want, got)
	})
}
