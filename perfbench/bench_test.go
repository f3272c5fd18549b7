package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"
	"time"

	"hierknem/internal/clusters"
	"hierknem/internal/imb"
)

// tinyNodes shrinks every workload to two nodes (48 ranks) so the whole
// benchmark runs in well under a second per workload.
const tinyNodes = 2

type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestTinyClusterEmitsEveryMetric runs each workload untraced and traced on
// a tiny cluster and checks that every metric BENCHMARK.json names is
// reported, with its declared unit, and nothing else.
func TestTinyClusterEmitsEveryMetric(t *testing.T) {
	d := readDeclared(t)
	for _, w := range d.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			declaredMetrics := d.EndToEnd
			if trace {
				declaredMetrics = d.PerLayer
			}
			rep, err := bench(config{
				workload: w, nodes: tinyNodes, seed: 1, seconds: time.Millisecond,
				trace: trace, out: t.TempDir(), log: io.Discard,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < minPasses*len(w.points) {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			for _, m := range declaredMetrics {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w.name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(rep.Metrics) != len(declaredMetrics) {
				t.Errorf("%s trace=%v: emitted %d metrics, BENCHMARK.json declares %d", w.name, trace, len(rep.Metrics), len(declaredMetrics))
			}
		}
	}
}

// TestSpawnRunKeepsResults checks that the empty World.Run the benchmark
// counts as set-up leaves every simulated result bit-identical to running
// the point on a fresh world the way hierbench does.
func TestSpawnRunKeepsResults(t *testing.T) {
	for _, w := range workloads {
		spec := w.spec(tinyNodes)
		np := spec.Nodes * spec.SocketsPerNode * spec.CoresPerSocket
		pr := runPass(w, tinyNodes, seededRand(1).Perm(len(w.points)))
		for _, got := range pr.points {
			k := slices.IndexFunc(w.points, func(p point) bool { return p.id(w.cluster, tinyNodes) == got.id })
			p := w.points[k]
			world, err := clusters.NewWorld(spec, "bycore", np)
			if err != nil {
				t.Fatal(err)
			}
			mod := clusters.Lineup(&spec)[p.module]
			var res imb.Result
			if p.op == "bcast" {
				res = imb.Bcast(world, mod, p.bytes, imb.Opts{Iterations: iterations, Warmup: 1, RotateRoot: true})
			} else {
				res = imb.Allgather(world, mod, p.bytes, imb.Opts{Iterations: iterations, Warmup: -1})
			}
			if got.err != nil || got.sim != (sim{res.AvgTime, res.MinTime, res.MaxTime}) {
				t.Errorf("%s: benchmark %+v (err %v), fresh world %+v", got.id, got.sim, got.err, res)
			}
		}
	}
}

// TestSeedsMatchPins runs every workload at paper scale under two seeds —
// two different point orders, so different points build the sweep's world
// and different points reuse it through World.Reset — and requires zero
// failed points against the pins and identical results under both orders.
// -short keeps only bcast-small.
func TestSeedsMatchPins(t *testing.T) {
	for _, w := range workloads {
		if testing.Short() && w.name != "bcast-small" {
			continue
		}
		results := map[uint64]map[string]sim{}
		var orders [][]int
		for _, seed := range []uint64{1, 2} {
			r := &runner{cfg: config{workload: w, nodes: paperNodes, pins: pins, log: io.Discard}}
			perm := seededRand(seed).Perm(len(w.points))
			orders = append(orders, perm)
			pr := runPass(w, paperNodes, perm)
			r.check(pr)
			if r.failed != 0 {
				t.Errorf("%s seed %d: %d of %d points failed", w.name, seed, r.failed, r.attempted)
			}
			results[seed] = map[string]sim{}
			for _, p := range pr.points {
				results[seed][p.id] = p.sim
			}
		}
		if slices.Equal(orders[0], orders[1]) {
			t.Errorf("%s: seeds 1 and 2 give the same order %v", w.name, orders[0])
		}
		for id, s := range results[1] {
			if results[2][id] != s {
				t.Errorf("%s: %s differs between seeds: %+v vs %+v", w.name, id, s, results[2][id])
			}
		}
		if len(results[1]) != len(w.points) {
			t.Errorf("%s: %d distinct results for %d points", w.name, len(results[1]), len(w.points))
		}
	}
}

// TestPinsCoverEveryPoint keeps the pin table in step with the workloads.
func TestPinsCoverEveryPoint(t *testing.T) {
	n := 0
	for _, w := range workloads {
		for _, p := range w.points {
			n++
			if _, ok := pins[p.id(w.cluster, paperNodes)]; !ok {
				t.Errorf("no pin for %s", p.id(w.cluster, paperNodes))
			}
		}
	}
	if len(pins) != n {
		t.Errorf("%d pins for %d points", len(pins), n)
	}
}
