package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"hierknem/internal/clusters"
	"hierknem/internal/imb"
	"hierknem/internal/mpi"
	"hierknem/internal/sweep"
	"hierknem/internal/topology"
)

// The paper's clusters: 32 nodes of two twelve-core sockets, 768 ranks with
// by-core binding. Tests shrink the node count.
const (
	paperNodes = 32
	iterations = 3 // hierbench's default timed IMB iterations per data point
)

// point is one data point of a paper figure: one module of the cluster's
// lineup running one IMB collective at one message size.
type point struct {
	op     string // "bcast" or "allgather"
	module int    // index into clusters.Lineup: 0 HierKNEM, 1 Tuned, 2 Hierarch
	bytes  int64  // message size (per-rank contribution for allgather)
}

var moduleNames = []string{"hierknem", "tuned", "hierarch"}

// id names the point as the pins and failure reports spell it.
func (p point) id(cluster string, nodes int) string {
	return fmt.Sprintf("%s/n%d/%s/%s/%s", cluster, nodes, p.op, moduleNames[p.module], sizeLabel(p.bytes))
}

func sizeLabel(b int64) string {
	if b >= 1<<20 {
		return fmt.Sprintf("%dMB", b>>20)
	}
	return fmt.Sprintf("%dKB", b>>10)
}

// workload is a fixed set of data points on one cluster. A pass runs every
// point once, back to back in one process (a closed loop with one client);
// the seed only permutes the order.
type workload struct {
	name    string
	cluster string // "stremi" (GigE, Fig. 3a) or "parapluie" (IB20G, Fig. 5b)
	points  []point
}

func bcastPoints(sizes ...int64) []point {
	var pts []point
	for _, sz := range sizes {
		for m := 0; m < 3; m++ {
			pts = append(pts, point{op: "bcast", module: m, bytes: sz})
		}
	}
	return pts
}

var workloads = []workload{
	// Fig. 3a latency regime: event dispatch, proc handoff, eager matching
	// and the per-collective hier.Build dominate; the fabric is nearly idle.
	{name: "bcast-small", cluster: "stremi", points: bcastPoints(2<<10, 8<<10)},
	// Fig. 3a bandwidth regime: pipelined segments, KNEM copies, shm
	// copy-in/out and contended memory bus and NIC.
	{name: "bcast-large", cluster: "stremi", points: bcastPoints(2<<20, 8<<20)},
	// Fig. 5b ring allgather: every rank has a rendezvous send and receive
	// in flight at each step, so matching indices, ~768 short fabric flows
	// and host memory dominate.
	{name: "allgather-ring", cluster: "parapluie", points: []point{
		{op: "allgather", module: 0, bytes: 64 << 10},
		{op: "allgather", module: 1, bytes: 64 << 10},
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) spec(nodes int) topology.Spec {
	if w.cluster == "parapluie" {
		return clusters.Parapluie(nodes)
	}
	return clusters.Stremi(nodes)
}

// sim is a point's simulated result: IMB's per-iteration max-over-ranks
// times in virtual seconds.
type sim struct{ Avg, Min, Max float64 }

func (s sim) bits() [3]uint64 {
	return [3]uint64{math.Float64bits(s.Avg), math.Float64bits(s.Min), math.Float64bits(s.Max)}
}

// counts are exact work counters read from the layers' public accessors
// after one point.
type counts struct {
	events, pool                            uint64
	syncs, fills, rounds, resVisits         uint64
	flowVisits, completions, peakComponents uint64
	knemGets, knemPuts, knemBytes           uint64
}

// add accumulates a point into a pass total. Pool size and peak component
// count are high-water marks, so they combine by max.
func (c *counts) add(o counts) {
	c.events += o.events
	c.pool = max(c.pool, o.pool)
	c.syncs += o.syncs
	c.fills += o.fills
	c.rounds += o.rounds
	c.resVisits += o.resVisits
	c.flowVisits += o.flowVisits
	c.completions += o.completions
	c.peakComponents = max(c.peakComponents, o.peakComponents)
	c.knemGets += o.knemGets
	c.knemPuts += o.knemPuts
	c.knemBytes += o.knemBytes
}

// pointResult is one executed point. err is set when the point panicked or
// stalled (the simulated result is then meaningless).
type pointResult struct {
	id          string
	sim         sim
	err         error
	setup, wall time.Duration
	allocBytes  uint64 // TotalAlloc delta over the timed part
	counts      counts
}

// passResult is one pass over a workload's points.
type passResult struct {
	points      []pointResult // in execution order
	setup, wall time.Duration // summed over points
	allocBytes  uint64        // summed over points' timed parts
	gcCycles    uint32        // NumGC delta over the pass
	counts      counts
}

// runPass runs every point of w once, in the order perm gives, through a
// one-worker sweep (the serial engine, a world cache per pass, so the first
// point builds the world and the rest reset it).
func runPass(w workload, nodes int, perm []int) passResult {
	spec := w.spec(nodes)
	np := spec.Nodes * spec.SocketsPerNode * spec.CoresPerSocket
	s := sweep.New("perfbench", 1, nil)
	futs := make([]*sweep.Future[pointResult], len(perm))
	for i, k := range perm {
		p := w.points[k]
		futs[i] = sweep.Go(s, p.id(w.cluster, nodes), func(c *sweep.Ctx) pointResult {
			return runPoint(c, spec, np, p, p.id(w.cluster, nodes))
		})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.Run(); err != nil {
		// runPoint recovers every panic of the simulation into its result,
		// so a job can only fail here through a bug in this file.
		panic(err)
	}
	runtime.ReadMemStats(&after)
	var pr passResult
	for _, f := range futs {
		r := f.Get()
		pr.points = append(pr.points, r)
		pr.setup += r.setup
		pr.wall += r.wall
		pr.allocBytes += r.allocBytes
		pr.counts.add(r.counts)
	}
	pr.gcCycles = after.NumGC - before.NumGC
	return pr
}

// runPoint times one data point. Set-up is obtaining the world from the
// sweep's cache (built on a miss, Reset on a hit) plus one empty Run that
// spawns the ranks; the timed part is the IMB measurement itself.
func runPoint(c *sweep.Ctx, spec topology.Spec, np int, p point, id string) (r pointResult) {
	r.id = id
	defer func() {
		if x := recover(); x != nil {
			r.err = fmt.Errorf("%s: %v", id, x)
		}
	}()
	t0 := time.Now()
	w := c.World(spec, "bycore", np)
	if err := w.Run(func(*mpi.Proc) {}); err != nil {
		r.err = fmt.Errorf("%s: spawn: %w", id, err)
		return r
	}
	r.setup = time.Since(t0)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ev0 := w.Machine.Eng.Processed()
	t1 := time.Now()
	mod := clusters.Lineup(&spec)[p.module]
	var res imb.Result
	switch p.op {
	case "bcast":
		res = imb.Bcast(w, mod, p.bytes, imb.Opts{Iterations: iterations, Warmup: 1, RotateRoot: true})
	case "allgather":
		res = imb.Allgather(w, mod, p.bytes, imb.Opts{Iterations: iterations, Warmup: -1})
	default:
		panic("perfbench: unknown op " + p.op)
	}
	r.wall = time.Since(t1)
	runtime.ReadMemStats(&ms1)
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.sim = sim{res.AvgTime, res.MinTime, res.MaxTime}

	fs := w.Machine.Fab.Stats()
	r.counts = counts{
		events:         w.Machine.Eng.Processed() - ev0,
		pool:           uint64(w.Machine.Eng.PoolSize()),
		syncs:          fs.Syncs,
		fills:          fs.Fills,
		rounds:         fs.Rounds,
		resVisits:      fs.ResourceVisits,
		flowVisits:     fs.FlowVisits,
		completions:    fs.Completions,
		peakComponents: uint64(fs.PeakComponents),
	}
	for _, d := range w.Knem {
		ks := d.Stats()
		r.counts.knemGets += uint64(ks.Gets)
		r.counts.knemPuts += uint64(ks.Puts)
		r.counts.knemBytes += uint64(ks.BytesCopied)
	}
	return r
}

// seededRand returns the generator that permutes a workload's point order,
// pass after pass. The order is the only thing the seed changes: the
// simulator's inputs, and so its results, are the same for every seed.
func seededRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
}
