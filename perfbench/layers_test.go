package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"slices"
	"testing"
)

const (
	desPkg    = repoPrefix + "des."
	mpiPkg    = repoPrefix + "mpi."
	fabricPkg = repoPrefix + "fabric."
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"chan receive under park", []string{"runtime.chanrecv", "runtime.chanrecv1", desPkg + "(*Proc).park", desPkg + "(*Proc).Park", mpiPkg + "(*Proc).Wait"}, "des.handoff"},
		{"chan send under dispatch", []string{"runtime.send", "runtime.chansend", "runtime.chansend1", desPkg + "(*Engine).dispatch", desPkg + "(*Proc).park"}, "des.handoff"},
		{"park self time", []string{desPkg + "(*Proc).park", mpiPkg + "(*Proc).Wait"}, "des.handoff"},
		{"orphan scheduler", []string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "des.handoff"},
		{"heap pop", []string{desPkg + "(*eventHeap).popMin", desPkg + "(*Engine).pop", desPkg + "(*Engine).dispatch"}, "des.dispatch"},
		{"malloc under event alloc", []string{"runtime.mallocgc", "runtime.newobject", desPkg + "(*Engine).alloc", desPkg + "(*Engine).schedule"}, "des.dispatch"},
		{"map probe under envIndex.add", []string{"runtime.mapaccess2", mpiPkg + "(*envIndex).add", mpiPkg + "(*Proc).deliver"}, "mpi.match"},
		{"generic fifo", []string{mpiPkg + "(*fifo[go.shape.*uint8]).push", mpiPkg + "(*postIndex).add"}, "mpi.match"},
		{"send path", []string{"runtime.memmove", mpiPkg + "(*Proc).Isend", repoPrefix + "coll.BcastBinomial"}, "mpi.p2p"},
		{"split under hier.Build", []string{"runtime.mapassign", mpiPkg + "(*Comm).Split", repoPrefix + "hier.Build", repoPrefix + "core.(*Module).Bcast"}, "hier.cum"},
		{"fill", []string{fabricPkg + "(*Net).fillInto", fabricPkg + "(*Net).fill", fabricPkg + "(*Net).sync"}, "fabric.fill"},
		{"repartition", []string{"runtime.memclrNoHeapPointers", fabricPkg + "(*Net).repartition", fabricPkg + "(*Net).sync"}, "fabric.fill"},
		{"fabric sync", []string{fabricPkg + "(*Net).sync", fabricPkg + "(*Net).requestSync.func1"}, "fabric.other"},
		{"knem copy", []string{repoPrefix + "knem.(*Device).Get", repoPrefix + "core.bcastIntra"}, "knem"},
		{"shm copy", []string{repoPrefix + "shm.CopyIn"}, "shm"},
		{"algorithm", []string{repoPrefix + "modules.(*tuned).Bcast", repoPrefix + "imb.Bcast.func1"}, "algo"},
		{"root facade", []string{"hierknem.BenchBcast", "main.runPoint"}, "algo"},
		{"buffer", []string{repoPrefix + "buffer.(*Buffer).Slice"}, "buffer"},
		{"topology", []string{"runtime.makeslice", repoPrefix + "topology.Build"}, "topology"},
		{"gc worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "gc"},
		{"gc assist under hier.Build", []string{"runtime.gcAssistAlloc", "runtime.mallocgc", repoPrefix + "hier.Build"}, "gc"},
		{"sweep job runner", []string{repoPrefix + "sweep.(*Sweep).runJob"}, "other"},
		{"benchmark code", []string{"runtime.nanotime", "time.Now", "main.runPoint", repoPrefix + "sweep.(*Sweep).runJob"}, "other"},
		{"no repo frame", []string{"runtime.memmove", "syscall.Syscall"}, "other"},
		{"empty stack", nil, "other"},
		{"profiler", []string{"runtime.mallocgc", "runtime/pprof.(*profMap).lookup", "runtime/pprof.profileWriter"}, ""},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("%s: classify = %q, want %q", c.name, got, c.want)
		}
		if c.want != "" && !slices.Contains(buckets, c.want) {
			t.Errorf("%s: %q is not a bucket", c.name, c.want)
		}
	}
}

func TestSplitSumsToOne(t *testing.T) {
	p := &profile{types: []string{"samples", "cpu"}, samples: []sample{
		{stack: []string{desPkg + "(*Engine).dispatch"}, values: []int64{1, 30}},
		{stack: []string{"runtime.gcBgMarkWorker"}, values: []int64{1, 10}},
		{stack: []string{mpiPkg + "(*envIndex).match"}, values: []int64{1, 60}},
		{stack: []string{"runtime/pprof.profileWriter"}, values: []int64{1, 50}},
	}}
	got := split(p, 1)
	if got["des.dispatch"] != 0.3 || got["gc"] != 0.1 || got["mpi.match"] != 0.6 {
		t.Errorf("split = %v", got)
	}
	var sum float64
	for _, b := range buckets {
		sum += got[b]
	}
	if sum < 0.999999 || sum > 1.000001 {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestDiffProfile(t *testing.T) {
	a := []string{"f"}
	b := []string{"g"}
	before := &profile{types: []string{"alloc_space"}, samples: []sample{{a, []int64{5}}}}
	after := &profile{types: []string{"alloc_space"}, samples: []sample{{a, []int64{7}}, {b, []int64{2}}, {a, []int64{1}}}}
	d := diffProfile(before, after)
	got := map[string]int64{}
	for _, s := range d.samples {
		got[s.stack[0]] += s.values[0]
	}
	if got["f"] != 3 || got["g"] != 2 {
		t.Errorf("diff = %v, want f:3 g:2", got)
	}
}

var sink [][]byte

//go:noinline
func allocateForProfile() {
	for range 64 {
		sink = append(sink, make([]byte, 4096))
	}
}

// TestDecodeHeapProfile decodes a heap profile the runtime writes and finds
// this test's allocation site in it.
func TestDecodeHeapProfile(t *testing.T) {
	defer func(r int) { runtime.MemProfileRate = r }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	allocateForProfile()
	sink = nil
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ai := p.valueIndex("alloc_space")
	if ai < 0 {
		t.Fatalf("sample types %v lack alloc_space", p.types)
	}
	var bytes int64
	for _, s := range p.samples {
		if slices.Contains(s.stack, "hierknem/perfbench.allocateForProfile") || slices.Contains(s.stack, "main.allocateForProfile") {
			bytes += s.values[ai]
		}
	}
	if bytes < 64*4096 {
		t.Errorf("allocation site carries %d bytes, want at least %d", bytes, 64*4096)
	}
}
