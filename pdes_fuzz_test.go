// FuzzPDESDiff is the differential fuzz gate for the conservative parallel
// engine: every input decodes into a random (topology, personality, worker
// count, program) tuple, runs once on the serial reference engine and once
// in ModeParallel with the decoded in-window worker count, and fails on any
// event-log divergence — a hex-exact time, a rank's completion order, the
// final clock or the processed-event count. The seed corpus covers the
// Table II mixed-collective scenario (merge/split churn through the fabric),
// bracketed node-phase rounds that execute on concurrent workers,
// cross-domain Timer.Cancel during phase execution — the deferred-cancel
// path the coordinator applies at the window barrier — and mixed-window
// populations where one node's bracketed phase set shares windows with
// unconfined residue traffic from the other nodes. The personality byte
// swaps the collective module between HierKNEM and the bracketed baselines
// (hierarch, MVAPICH2), so the real modules' EnterNodePhase/ExitNodePhase
// placements are fuzzed, not just hand-written phase shapes.
package hierknem_test

import (
	"fmt"
	"testing"

	"hierknem"
	"hierknem/internal/buffer"
	"hierknem/internal/coll"
	"hierknem/internal/des"
	"hierknem/internal/modules"
	"hierknem/internal/mpi"
)

const (
	fuzzMaxOps = 6
)

// fuzzOp is one step of a fuzzed program.
type fuzzOp struct {
	kind int // 0 bcast, 1 reduce, 2 allgather, 3 barrier, 4 node-phase rounds, 5 cross-domain timer cancel, 6 mixed-window population
	size int64
	root int
}

// decodePDESPlan turns fuzz bytes into a cluster shape, a collective
// personality, a phase worker count and a program. Every decoded plan is
// valid by construction, so a divergence is an engine bug, not an ill-formed
// input. Byte layout:
//
//	data[0]       nodes = 2 + data[0]%3
//	data[1]       ppn   = 2 + data[1]%3
//	data[2]       workers = 1 + data[2]%8; personality = data[2]/8%3
//	              (0 hierknem, 1 hierarch, 2 mvapich2 — all three bracket
//	              their node-confined stretches, with different leader
//	              topologies; values from 24 up wrap the personality)
//	data[3:]      (kind, size/root) byte pairs, at most fuzzMaxOps ops
func decodePDESPlan(data []byte) (nodes, ppn, workers, pers int, ops []fuzzOp) {
	nodes, ppn = 2, 2
	if len(data) > 0 {
		nodes = 2 + int(data[0])%3 // 2..4
	}
	if len(data) > 1 {
		ppn = 2 + int(data[1])%3 // 2..4
	}
	if len(data) > 2 {
		workers = 1 + int(data[2])%8 // 1..8; 0 (short input) = engine default
		pers = int(data[2]) / 8 % 3
	}
	np := nodes * ppn
	for i := 3; i+1 < len(data) && len(ops) < fuzzMaxOps; i += 2 {
		ops = append(ops, fuzzOp{
			kind: int(data[i]) % 7,
			// 64B .. 128KB: spans the eager threshold and the pipeline
			// chunk sizes, so flows merge and split mid-collective.
			size: int64(1) << (6 + int(data[i+1])%12),
			root: int(data[i+1]) % np,
		})
	}
	return nodes, ppn, workers, pers, ops
}

// runPDESPlan executes the program on a fresh world in the given mode (and,
// when workers > 0, worker count) and returns its event log (per-rank hex
// completion times per op, final clock, processed count).
func runPDESPlan(t *testing.T, nodes, ppn, workers, pers int, ops []fuzzOp, mode hierknem.EngineMode) []string {
	t.Helper()
	spec := hierknem.Stremi(nodes)
	w, err := hierknem.NewWorldPPN(spec, ppn)
	if err != nil {
		t.Fatal(err)
	}
	w.SetEngineMode(mode)
	if workers > 0 {
		w.SetEngineWorkers(workers)
	}
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
	lat := spec.NetLatency

	// Per-(op, rank) buffers and timer tables, allocated identically for
	// both runs.
	bufs := make([][]*buffer.Buffer, len(ops))
	rbufs := make([][]*buffer.Buffer, len(ops))
	timers := make([][]des.Timer, len(ops))
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
		case 4, 6:
			// Node-confined traffic must stay under the eager threshold.
			bufs[k] = phantomPerRank(np, 512)
			rbufs[k] = phantomPerRank(np, 512)
		case 5:
			timers[k] = make([]des.Timer, np)
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
			case 4:
				// Bracketed node-local rounds; the compute stretch walks the
				// bracket across window boundaries so confined windows form.
				nc := p.NodeComm()
				nme, n := nc.Rank(p), nc.Size()
				for r := 0; r < 2+op.root%3; r++ {
					if r == 0 {
						p.EnterNodePhase()
					}
					if n > 1 {
						p.SendRecv(nc, bufs[k][me], (nme+1)%n, 300+r, rbufs[k][me], (nme-1+n)%n, 300+r)
					}
					nc.Barrier(p)
					p.Compute(0.4 * lat)
				}
				p.ExitNodePhase()
			case 5:
				// Cross-domain Timer.Cancel during phase execution: every
				// rank arms an unconfined no-op timer far in the future,
				// then — inside a node phase, past a window boundary —
				// cancels the timer of a rank half the world away (usually
				// another node). In parallel mode the cancel lands in a
				// staged event of a foreign domain and takes the deferred
				// path; the committed log must not notice.
				c.Barrier(p)
				timers[k][me] = p.DES().After(20*lat, func() {})
				c.Barrier(p)
				p.EnterNodePhase()
				p.Compute(0.6 * lat)
				timers[k][(me+np/2)%np].Cancel()
				p.Compute(0.8 * lat)
				p.ExitNodePhase()
			case 6:
				// Mixed-window population: node 0's ranks run bracketed
				// node-confined rounds while every other rank keeps trading
				// unconfined traffic in the same windows — cross-node slot
				// pairs over a ring of the non-zero nodes when there are at
				// least two of them, plain unbracketed node-local exchanges
				// otherwise. The census must split each window into node 0's
				// phase set plus a coordinator-run residue, and the committed
				// interleaving must still be the serial one.
				c.Barrier(p)
				node, slot := me/ppn, me%ppn
				if node == 0 {
					nc := p.NodeComm()
					nme, n := nc.Rank(p), nc.Size()
					p.EnterNodePhase()
					for r := 0; r < 2; r++ {
						if n > 1 {
							p.SendRecv(nc, bufs[k][me], (nme+1)%n, 400+r, rbufs[k][me], (nme-1+n)%n, 400+r)
						}
						p.Compute(0.3 * lat)
					}
					p.ExitNodePhase()
				} else if nodes > 2 {
					m := nodes - 1 // ring over nodes 1..nodes-1
					next := 1 + (node-1+1)%m
					prev := 1 + (node-1-1+m)%m
					p.SendRecv(c, bufs[k][me], next*ppn+slot, 450, rbufs[k][me], prev*ppn+slot, 450)
				} else {
					nc := p.NodeComm()
					nme, n := nc.Rank(p), nc.Size()
					if n > 1 {
						p.SendRecv(nc, bufs[k][me], (nme+1)%n, 450, rbufs[k][me], (nme-1+n)%n, 450)
					}
				}
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

func FuzzPDESDiff(f *testing.F) {
	// Seeds: degenerate shapes, then Table II-style mixed-collective churn
	// (bcast/allgather/reduce alternating across the eager threshold and
	// pipeline sizes, varying roots) on 2-4 nodes, then the parallel-phase
	// stressors: node-phase rounds at several worker counts, the
	// cross-domain cancel-during-execution case, mixed-window populations
	// (one node phased, the rest residue), and the bracketed baseline
	// personalities at bracket-eligible sizes.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 10})                         // 2x2, one worker (degenerate engine), one 64KB bcast
	f.Add([]byte{1, 1, 3, 3, 0})                          // 3x3, 4 workers, lone barrier
	f.Add([]byte{2, 2, 7, 0, 11, 2, 5, 1, 8, 3, 0, 0, 1}) // 4x4 Table II churn: big bcast, allgather, reduce, barrier, tiny bcast
	f.Add([]byte{1, 0, 2, 2, 9, 1, 9, 2, 3, 0, 7})        // 3x2, 3 workers: allgather/reduce/allgather/bcast merge-split churn
	f.Add([]byte{0, 2, 0, 1, 0, 1, 11, 0, 4, 2, 2})       // 2x4, default workers: small reduce, huge reduce, bcast, allgather
	f.Add([]byte{2, 1, 1, 4, 5, 4, 0, 3, 0})              // 4x3, 2 workers: node-phase rounds, more rounds, barrier
	f.Add([]byte{1, 2, 3, 5, 0, 4, 2, 5, 7, 0, 6})        // 3x4, 4 workers: timer cancel in phase, node phase, cancel again, bcast
	f.Add([]byte{2, 2, 5, 5, 9, 5, 3})                    // 4x4, 6 workers: back-to-back cross-domain cancels
	f.Add([]byte{2, 1, 1, 6, 0, 6, 4, 3, 0})              // 4x3, 2 workers: mixed windows (node 0 phased, ring residue), twice, barrier
	f.Add([]byte{0, 0, 9, 6, 1, 0, 2, 6, 0})              // 2x2, 2 workers, hierarch: mixed window (node-local residue), small bcast, mixed again
	f.Add([]byte{1, 1, 10, 0, 3, 1, 4, 2, 2})             // 3x3, 3 workers, hierarch: bracketed small bcast/reduce/allgather
	f.Add([]byte{0, 2, 19, 0, 2, 4, 1, 0, 5})             // 2x4, 4 workers, mvapich2: small bcast, node-phase rounds, 2KB bcast
	f.Add([]byte{2, 2, 12, 0, 1, 6, 0, 1, 2, 3, 0})       // 4x4, 5 workers, hierarch: small bcast, mixed window, reduce, barrier
	// Cutoff-adjacent seeds: 2KB rides the bracketed path, 4KB sits exactly
	// at the eager/fabric cutoff so its collectives must stay unbracketed.
	f.Add([]byte{0, 0, 25, 0, 5, 1, 5, 4, 2}) // 2x2, 2 workers, hierknem: 2KB bcast, 2KB reduce, node-phase rounds
	f.Add([]byte{1, 1, 33, 0, 6, 6, 1, 1, 5}) // 3x3, 2 workers, hierarch: 4KB bcast (at cutoff), mixed window, 2KB reduce
	f.Add([]byte{2, 0, 43, 0, 5, 4, 6, 0, 6}) // 4x2, 4 workers, mvapich2: 2KB bcast, node rounds, 4KB bcast

	f.Fuzz(func(t *testing.T, data []byte) {
		nodes, ppn, workers, pers, ops := decodePDESPlan(data)
		want := runPDESPlan(t, nodes, ppn, 0, pers, ops, hierknem.EngineSerial)
		got := runPDESPlan(t, nodes, ppn, workers, pers, ops, hierknem.EngineParallel)
		diffLogs(t, fmt.Sprintf("pdes diff %dx%d w%d p%d %v", nodes, ppn, workers, pers, ops), want, got)
	})
}
