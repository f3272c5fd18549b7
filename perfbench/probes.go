package main

import (
	"fmt"
	"slices"
	"time"

	"hierknem/internal/clusters"
	"hierknem/internal/hier"
	"hierknem/internal/mpi"
	"hierknem/internal/sweep"
	"hierknem/internal/topology"
)

const probeReps = 7

// probes times direct calls to the layers' public set-up functions on a
// workload's cluster shape and returns the median of each in milliseconds:
//
//	topology.build_ms  topology.Build of the cluster
//	mpi.newworld_ms    mpi.NewWorld over a built machine and by-core binding
//	mpi.spawn_ms       the first empty World.Run, which spawns every rank
//	hier.build_ms      a World.Run in which every rank calls hier.Build on the
//	                   world communicator, minus an empty Run on the same world
//	sweep.reset_ms     a sweep job fetching its cached world again (Reset)
func probes(w workload, nodes int) (map[string]float64, error) {
	spec := w.spec(nodes)
	np := spec.Nodes * spec.SocketsPerNode * spec.CoresPerSocket
	empty := func(*mpi.Proc) {}
	var build, newWorld, spawn, hierBuild, reset []float64
	for range probeReps {
		t0 := time.Now()
		m, err := topology.Build(spec)
		build = append(build, msSince(t0))
		if err != nil {
			return nil, fmt.Errorf("topology.Build: %w", err)
		}
		b, err := topology.ByCore(m, np)
		if err != nil {
			return nil, fmt.Errorf("topology.ByCore: %w", err)
		}
		t0 = time.Now()
		world, err := mpi.NewWorld(m, b, clusters.Config(&spec))
		newWorld = append(newWorld, msSince(t0))
		if err != nil {
			return nil, fmt.Errorf("mpi.NewWorld: %w", err)
		}
		t0 = time.Now()
		if err := world.Run(empty); err != nil {
			return nil, fmt.Errorf("empty World.Run: %w", err)
		}
		spawn = append(spawn, msSince(t0))

		world.Reset()
		t0 = time.Now()
		if err := world.Run(empty); err != nil {
			return nil, fmt.Errorf("empty World.Run: %w", err)
		}
		base := msSince(t0)
		world.Reset()
		t0 = time.Now()
		if err := world.Run(func(p *mpi.Proc) { hier.Build(p, world.WorldComm(), 0) }); err != nil {
			return nil, fmt.Errorf("hier.Build run: %w", err)
		}
		hierBuild = append(hierBuild, msSince(t0)-base)
	}

	s := sweep.New("perfbench-probe", 1, nil)
	fut := sweep.Go(s, "reset", func(c *sweep.Ctx) error {
		if err := c.World(spec, "bycore", np).Run(empty); err != nil {
			return err
		}
		for range probeReps {
			t0 := time.Now()
			world := c.World(spec, "bycore", np)
			reset = append(reset, msSince(t0))
			if err := world.Run(empty); err != nil {
				return err
			}
		}
		return nil
	})
	if err := s.Run(); err != nil {
		return nil, err
	}
	if err := fut.Get(); err != nil {
		return nil, fmt.Errorf("sweep reset probe: %w", err)
	}
	return map[string]float64{
		"topology.build_ms": median(build),
		"mpi.newworld_ms":   median(newWorld),
		"mpi.spawn_ms":      median(spawn),
		"hier.build_ms":     median(hierBuild),
		"sweep.reset_ms":    median(reset),
	}, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// median returns the median of xs (the mean of the middle two for an even
// count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
