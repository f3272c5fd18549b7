// Command perfbench is the repository's benchmark. It runs one named
// workload — a fixed set of the paper's Fig. 3a and Fig. 5b data points on
// the 768-rank clusters — through the public simulator packages, checks
// every point's simulated result against the pinned value, and prints host
// time, set-up time and host memory (untraced), or a per-layer split of host
// CPU and allocations plus exact work counts (traced). See README.md.
//
//	bash perfbench/run.sh --workload bcast-large --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":..., "attempted":..., "failed":..., "metrics": {...}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one benchmark invocation.
type config struct {
	workload workload
	nodes    int                  // cluster nodes (the paper's 32; tests shrink it)
	pins     map[string][3]uint64 // expected simulated results; nil skips the check
	seed     uint64
	seconds  time.Duration // measuring time (doubled by a traced run)
	trace    bool
	out      string // directory for profiles
	log      io.Writer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: bcast-small, bcast-large or allgather-ring")
	seed := fs.Uint64("seed", 1, "workload seed (permutes the order data points run in)")
	seconds := fs.Float64("seconds", 40, "measuring time in seconds (a traced run alternates plain and profiled passes for twice this)")
	trace := fs.Int("trace", 0, "1: report the per-layer split instead of the end-to-end metrics")
	emitPins := fs.Bool("pins", false, "run every workload once and print the pin table as Go source")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *emitPins {
		printPins(stdout)
		return 0
	}
	wl, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload bcast-small|bcast-large|allgather-ring, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg := config{
		workload: wl, nodes: paperNodes, pins: pins, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1, out: filepath.Join(".bench_build", "profiles"), log: stderr,
	}
	fmt.Fprintf(stdout, "stamp: %s\n", stamp(cfg))
	rep, err := bench(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, k := range sortedKeys(rep.Metrics) {
		fmt.Fprintf(stdout, "%-28s %16.6f %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// stamp describes what was measured: toolchain, host parallelism, GC
// pacing (left at the process default; GOGC comes from the environment),
// commit and workload seed.
func stamp(cfg config) string {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "default"
	}
	commit := "unknown"
	if _, err := os.Stat(".git"); err == nil {
		if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(b))
		}
	}
	b, _ := json.Marshal(map[string]any{ // a map of strings and numbers always marshals
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "gogc": gogc,
		"nproc": runtime.NumCPU(), "commit": commit, "workload": cfg.workload.name,
		"seed": cfg.seed, "trace": cfg.trace, "nodes": cfg.nodes,
	})
	return string(b)
}

// minPasses keeps every median over at least three passes, however short
// the measuring time.
const minPasses = 3

// runner executes passes of one workload and keeps the correctness tally.
type runner struct {
	cfg               config
	rng               *rand.Rand
	attempted, failed int
}

// pass runs one pass in a fresh point order and checks every point.
func (r *runner) pass() passResult {
	pr := runPass(r.cfg.workload, r.cfg.nodes, r.rng.Perm(len(r.cfg.workload.points)))
	r.check(pr)
	fmt.Fprintf(r.cfg.log, "pass: wall %.4fs setup %.4fs alloc %.1fMB gc %d\n",
		pr.wall.Seconds(), pr.setup.Seconds(), float64(pr.allocBytes)/1e6, pr.gcCycles)
	return pr
}

// check counts a point as failed when it panicked or stalled, or when its
// simulated result differs in any bit from the pin.
func (r *runner) check(pr passResult) {
	for _, p := range pr.points {
		r.attempted++
		switch {
		case p.err != nil:
			r.failed++
			fmt.Fprintf(r.cfg.log, "perfbench: FAIL %v\n", p.err)
		case r.cfg.pins != nil:
			if want, ok := r.cfg.pins[p.id]; !ok || want != p.sim.bits() {
				r.failed++
				fmt.Fprintf(r.cfg.log, "perfbench: FAIL %s: simulated %+v does not match its pin\n", p.id, p.sim)
			}
		}
	}
}

func bench(cfg config) (report, error) {
	r := &runner{cfg: cfg, rng: seededRand(cfg.seed)}
	m := map[string]metric{}
	run := untraced
	if cfg.trace {
		run = traced
	}
	if err := run(r, m); err != nil {
		return report{}, err
	}
	return report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}, nil
}

// untraced fills m with the end-to-end metrics: medians over the passes
// run back to back for the measuring time, and the process's peak RSS.
func untraced(r *runner, m map[string]metric) error {
	var passes []passResult
	start := time.Now()
	for len(passes) < minPasses || time.Since(start) < r.cfg.seconds {
		passes = append(passes, r.pass())
	}
	m["wall_s"] = metric{medianOf(passes, wallOf), "s"}
	m["setup_s"] = metric{medianOf(passes, func(p passResult) float64 { return p.setup.Seconds() }), "s"}
	m["alloc_mb"] = metric{medianOf(passes, func(p passResult) float64 { return float64(p.allocBytes) / 1e6 }), "MB"}
	rss, err := peakRSS()
	if err != nil {
		return err
	}
	m["peak_rss_mb"] = metric{rss / 1e6, "MB"}
	return nil
}

func wallOf(p passResult) float64 { return p.wall.Seconds() }

// traced fills m with the per-layer metrics. For twice the measuring time
// it alternates a plain pass with a profiled one, so a drift in host speed
// hits both alike: the plain passes give the exact counts, ns per event and
// the base of the tracing overhead, the profiled ones the layer split. It
// then times the layers' set-up calls directly. No traced number feeds an
// end-to-end metric.
func traced(r *runner, m map[string]metric) error {
	if err := os.MkdirAll(r.cfg.out, 0o755); err != nil {
		return err
	}
	stale, _ := filepath.Glob(filepath.Join(r.cfg.out, r.cfg.workload.name+".cpu.*.pprof")) // the pattern is well-formed
	for _, f := range stale {
		if err := os.Remove(f); err != nil {
			return err
		}
	}
	var plain, profiled []passResult
	cpu, heap := &profile{}, &profile{}
	start := time.Now()
	for len(profiled) < minPasses || time.Since(start) < 2*r.cfg.seconds {
		plain = append(plain, r.pass())
		pr, err := r.profiledPass(len(profiled), cpu, heap)
		if err != nil {
			return err
		}
		profiled = append(profiled, pr)
	}

	vi := cpu.valueIndex("cpu")
	if vi < 0 {
		return errors.New("cpu profile has no cpu sample type")
	}
	for b, v := range split(cpu, vi) {
		m[fracName(b)] = metric{v, "fraction"}
	}
	ai := heap.valueIndex("alloc_space")
	if ai < 0 {
		return errors.New("heap profile has no alloc_space sample type")
	}
	for b, v := range split(heap, ai) {
		m[b+".alloc_frac"] = metric{v, "fraction"}
	}

	wall := medianOf(plain, wallOf)
	m["trace.overhead_frac"] = metric{medianOf(profiled, wallOf)/wall - 1, "fraction"}

	ps, err := probes(r.cfg.workload, r.cfg.nodes)
	if err != nil {
		return err
	}
	for k, v := range ps {
		m[k] = metric{v, "ms"}
	}

	c := plain[0].counts
	for _, p := range plain[1:] {
		if p.counts != c {
			// The counts depend only on the simulator's inputs, never on
			// the point order or on which point reused the world.
			return fmt.Errorf("work counts differ between passes: %+v vs %+v", c, p.counts)
		}
	}
	m["des.ns_per_event"] = metric{wall * 1e9 / float64(c.events), "ns"}
	for k, v := range map[string]uint64{
		"des.events": c.events, "des.pool_size": c.pool,
		"fabric.syncs": c.syncs, "fabric.fills": c.fills, "fabric.rounds": c.rounds,
		"fabric.resource_visits": c.resVisits, "fabric.flow_visits": c.flowVisits,
		"fabric.completions": c.completions, "fabric.peak_components": c.peakComponents,
		"knem.gets": c.knemGets, "knem.puts": c.knemPuts, "knem.bytes_copied": c.knemBytes,
	} {
		m[k] = metric{float64(v), "count"}
	}
	m["gc.cycles"] = metric{medianOf(plain, func(p passResult) float64 { return float64(p.gcCycles) }), "count"}
	return nil
}

// profiledPass runs pass number k under a CPU profile, between two
// heap-profile snapshots, and adds its CPU samples to cpu and the bytes it
// allocated to heap. Each pass's CPU profile stays on disk as
// <workload>.cpu.<k>.pprof; go tool pprof merges them.
func (r *runner) profiledPass(k int, cpu, heap *profile) (passResult, error) {
	base := filepath.Join(r.cfg.out, r.cfg.workload.name)
	cpuPath := fmt.Sprintf("%s.cpu.%d.pprof", base, k)
	heap0, heap1 := base+".heap0.pprof", base+".heap1.pprof"
	if err := writeHeap(heap0); err != nil {
		return passResult{}, err
	}
	f, err := os.Create(cpuPath)
	if err != nil {
		return passResult{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return passResult{}, err
	}
	pr := r.pass()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return passResult{}, err
	}
	if err := writeHeap(heap1); err != nil {
		return passResult{}, err
	}
	c, err := readProfile(cpuPath)
	if err != nil {
		return passResult{}, err
	}
	h0, err := readProfile(heap0)
	if err != nil {
		return passResult{}, err
	}
	h1, err := readProfile(heap1)
	if err != nil {
		return passResult{}, err
	}
	cpu.add(c)
	heap.add(diffProfile(h0, h1))
	return pr, nil
}

// writeHeap snapshots the cumulative allocation profile. The runtime
// publishes allocations at the end of a GC cycle, so one runs first.
func writeHeap(path string) error {
	runtime.GC()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSS returns the process's peak resident set size in bytes.
func peakRSS() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) * 1024, nil // Linux reports kilobytes
}

func medianOf(ps []passResult, f func(passResult) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
