package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// printPins runs one pass of every workload at paper scale and prints the
// pin table (pins.go) as Go source. Regenerate it only on a commit whose
// simulated output is meant to change.
func printPins(w io.Writer) {
	got := map[string][3]uint64{}
	for _, wl := range workloads {
		pr := runPass(wl, paperNodes, seededRand(1).Perm(len(wl.points)))
		for _, p := range pr.points {
			if p.err != nil {
				panic(p.err)
			}
			got[p.id] = p.sim.bits()
		}
	}
	ids := make([]string, 0, len(got))
	for id := range got {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	fmt.Fprint(w, `// Code generated by "perfbench --pins"; DO NOT EDIT.

package main

// pins holds every data point's simulated IMB result (AvgTime, MinTime,
// MaxTime as float64 bits) at paper scale. A run whose result differs in
// any bit counts that point as failed.
var pins = map[string][3]uint64{
`)
	for _, id := range ids {
		b := got[id]
		fmt.Fprintf(w, "\t%q: {%#016x, %#016x, %#016x}, // avg %.9g s\n", id, b[0], b[1], b[2], math.Float64frombits(b[0]))
	}
	fmt.Fprintln(w, "}")
}
