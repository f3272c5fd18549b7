package main

import "strings"

// buckets are the layers host CPU and host allocations are split into, in
// report order. Every profile sample but the profiler's own lands in
// exactly one bucket, so the shares of one profile sum to 1.
var buckets = []string{
	"des.dispatch", "des.handoff",
	"mpi.match", "mpi.p2p",
	"hier.cum",
	"fabric.fill", "fabric.other",
	"knem", "shm",
	"algo", "buffer", "topology",
	"gc", "other",
}

// fracName names a bucket's CPU-share metric: "des.dispatch_frac",
// "knem.frac".
func fracName(bucket string) string {
	if strings.Contains(bucket, ".") {
		return bucket + "_frac"
	}
	return bucket + ".frac"
}

const repoPrefix = "hierknem/internal/"

// classify charges one profile sample to a bucket. stack holds function
// names as the profile spells them, leaf first. The rules, first match wins:
//
//  1. GC workers and assists (a gcBgMarkWorker, gcAssistAlloc, gcDrain,
//     background sweep/scavenge or GC start frame anywhere) go to gc.
//  2. Anything with hier.Build on the stack goes to hier.cum: hierarchy set-up
//     is reported cumulatively, including the communicator Splits it calls.
//  3. Otherwise the sample is self time of its nearest repo frame: the leaf
//     if it is repo code, else the first repo caller of the runtime or
//     standard-library frames at the leaf. Channel and scheduler frames
//     reached from the des package (the baton handed between rank
//     goroutines) go to des.handoff, as does all of des.(*Proc).park, Wake
//     and Spawn.
//  4. A stack with no repo frame goes to des.handoff when it is scheduler
//     work (a parked rank goroutine switching out or exiting), else other.
//
// The profiler's own work (any runtime/pprof frame) is not part of the
// benchmark; classify returns "" for it and split leaves it out.
func classify(stack []string) string {
	for _, f := range stack {
		if strings.HasPrefix(f, "runtime/pprof.") {
			return ""
		}
	}
	for _, f := range stack {
		if isGC(f) {
			return "gc"
		}
	}
	for _, f := range stack {
		if f == repoPrefix+"hier.Build" {
			return "hier.cum"
		}
	}
	sched := false
	for _, f := range stack {
		if !strings.HasPrefix(f, repoPrefix) && !strings.HasPrefix(f, "hierknem.") {
			sched = sched || isSched(f)
			continue
		}
		pkg, fn := splitFunc(f)
		switch pkg {
		case "des":
			if sched || isHandoffFunc(fn) {
				return "des.handoff"
			}
			return "des.dispatch"
		case "mpi":
			if strings.HasPrefix(fn, "(*envIndex)") || strings.HasPrefix(fn, "(*postIndex)") || strings.HasPrefix(fn, "(*fifo[") {
				return "mpi.match"
			}
			return "mpi.p2p"
		case "fabric":
			if isFillFunc(fn) {
				return "fabric.fill"
			}
			return "fabric.other"
		case "knem", "shm", "buffer", "topology":
			return pkg
		case "coll", "core", "modules", "imb", "hier", "hierknem":
			return "algo"
		default:
			return "other"
		}
	}
	if sched {
		return "des.handoff"
	}
	return "other"
}

// splitFunc splits a repo function name into its package's last path
// element and the function part: "hierknem/internal/des.(*Proc).park" gives
// ("des", "(*Proc).park"); the root facade "hierknem.BenchBcast" gives
// ("hierknem", "BenchBcast").
func splitFunc(name string) (pkg, fn string) {
	rest := strings.TrimPrefix(name, repoPrefix)
	if i := strings.LastIndex(rest, "/"); i >= 0 {
		rest = rest[i+1:]
	}
	pkg, fn, _ = strings.Cut(rest, ".")
	return pkg, fn
}

func isHandoffFunc(fn string) bool {
	for _, p := range []string{"(*Proc).park", "(*Proc).Wake", "(*Engine).Spawn"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// isFillFunc matches the fabric's progressive filling and the component
// repartition pass.
func isFillFunc(fn string) bool {
	for _, p := range []string{"(*Net).fill", "(*Net).repartition"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

func isGC(f string) bool {
	for _, p := range []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
		"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.GC",
	} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// isSched matches runtime channel, goroutine-switch and scheduler frames.
func isSched(f string) bool {
	switch f {
	case "runtime.gopark", "runtime.goready", "runtime.ready", "runtime.park_m",
		"runtime.mcall", "runtime.schedule", "runtime.findRunnable",
		"runtime.execute", "runtime.gogo", "runtime.casgstatus",
		"runtime.send", "runtime.recv", "runtime.gdestroy", "runtime.wakep",
		"runtime.lock2", "runtime.unlock2", "runtime.gfget", "runtime.gfput",
		"runtime.malg", "runtime.stopm", "runtime.startm", "runtime.mPark",
		"runtime.notesleep", "runtime.notewakeup", "runtime.acquirep",
		"runtime.releasep", "runtime.handoffp", "runtime.resetspinning":
		return true
	}
	for _, p := range []string{"runtime.chan", "runtime.select", "runtime.newproc", "runtime.goexit", "runtime.runq", "runtime.futex"} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// split returns each bucket's share of the profile's value at index vi.
// Samples are weighted by that value (CPU nanoseconds, allocated bytes).
func split(p *profile, vi int) map[string]float64 {
	sums := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if vi >= len(s.values) || s.values[vi] <= 0 {
			continue
		}
		b := classify(s.stack)
		if b == "" {
			continue
		}
		v := float64(s.values[vi])
		sums[b] += v
		total += v
	}
	out := make(map[string]float64, len(buckets))
	for _, b := range buckets {
		if total > 0 {
			out[b] = sums[b] / total
		} else {
			out[b] = 0
		}
	}
	return out
}

// diffProfile returns after minus before, summed per distinct stack. The
// heap profile is cumulative since process start; the difference of two
// snapshots is what the span between them allocated.
func diffProfile(before, after *profile) *profile {
	key := func(s sample) string { return strings.Join(s.stack, "\n") }
	out := &profile{types: after.types}
	idx := map[string]int{}
	for _, s := range after.samples {
		k := key(s)
		i, ok := idx[k]
		if !ok {
			i = len(out.samples)
			idx[k] = i
			out.samples = append(out.samples, sample{stack: s.stack, values: make([]int64, len(after.types))})
		}
		addValues(out.samples[i].values, s.values, 1)
	}
	for _, s := range before.samples {
		if i, ok := idx[key(s)]; ok {
			addValues(out.samples[i].values, s.values, -1)
		}
	}
	return out
}

func addValues(dst, src []int64, sign int64) {
	for i := range min(len(dst), len(src)) {
		dst[i] += sign * src[i]
	}
}
