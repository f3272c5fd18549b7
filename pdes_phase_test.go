// Node-phase equivalence and scale tests: the confined intra-node workload
// that actually exercises parallel in-window execution. Ranks bracket their
// node-local stretch with EnterNodePhase/ExitNodePhase and stay under the
// eager threshold, so whole windows become phase-eligible and their nodes
// execute on concurrent workers — the event log must still be hex-identical
// to the serial reference at every worker count.
package hierknem_test

import (
	"fmt"
	"testing"

	"hierknem"
	"hierknem/internal/des"
	"hierknem/internal/mpi"
)

// nodePhaseProg runs rounds of bracketed node-local traffic on every rank:
// a sub-eager ring exchange on the prebuilt node communicator, a node
// barrier, then a compute stretch sized to carry the rank across window
// boundaries (0.4 network latencies per round, against a lookahead of one),
// so consecutive windows fill with nothing but confined events. Appends to
// log happen after ExitNodePhase — serial coordinator context.
func nodePhaseProg(w *hierknem.World, rounds int, log *[]string) error {
	np := w.Size()
	lat := w.Machine.Spec.NetLatency
	sb := phantomPerRank(np, 512)
	rb := phantomPerRank(np, 512)
	return w.Run(func(p *mpi.Proc) {
		nc := p.NodeComm()
		me := nc.Rank(p)
		n := nc.Size()
		wme := p.Rank()
		p.EnterNodePhase()
		for r := 0; r < rounds; r++ {
			if n > 1 {
				p.SendRecv(nc, sb[wme], (me+1)%n, 200+r, rb[wme], (me-1+n)%n, 200+r)
			}
			nc.Barrier(p)
			p.Compute(0.4 * lat)
		}
		p.ExitNodePhase()
		if log != nil {
			*log = append(*log, fmt.Sprintf("r%d done %s", wme, hexTime(p.Now())))
		}
	})
}

// nodePhaseLog builds a fresh world in the given mode (and, when workers > 0,
// the given phase worker count), runs the node-phase workload and returns
// the event log.
func nodePhaseLog(t testing.TB, mode hierknem.EngineMode, workers, rounds int) ([]string, *hierknem.World) {
	t.Helper()
	w, err := hierknem.NewWorldPPN(isoSpec(), isoPPN)
	if err != nil {
		t.Fatal(err)
	}
	w.SetEngineMode(mode)
	if workers > 0 {
		w.SetEngineWorkers(workers)
	}
	var log []string
	if err := nodePhaseProg(w, rounds, &log); err != nil {
		t.Fatal(err)
	}
	log = append(log, fmt.Sprintf("final %s %d", hexTime(w.Now()), w.Machine.Eng.Processed()))
	return log, w
}

// TestNodePhaseHexIdenticalAcrossWorkers is the tentpole gate for parallel
// in-window execution: the confined workload's event log must equal the
// serial reference log string-for-string at every worker count, from the
// degenerate one-worker engine through a worker surplus (8 workers for 3
// domains).
func TestNodePhaseHexIdenticalAcrossWorkers(t *testing.T) {
	const rounds = 12
	want, _ := nodePhaseLog(t, hierknem.EngineSerial, 0, rounds)
	for _, workers := range []int{1, 2, 3, 5, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, w := nodePhaseLog(t, hierknem.EngineParallel, workers, rounds)
			diffLogs(t, fmt.Sprintf("node phase workers=%d", workers), want, got)
			ws := w.Machine.Eng.WindowStats()
			if workers >= 2 {
				if ws.Windows == 0 {
					t.Fatalf("parallel mode never advanced a window (stats %+v)", ws)
				}
				if ws.Phases == 0 || ws.PhaseEv == 0 {
					t.Fatalf("no window executed a parallel phase (stats %+v) — the confined workload is not phase-eligible", ws)
				}
			} else if ws.Windows != 0 || ws.Phases != 0 {
				t.Fatalf("one-worker engine ran window machinery (stats %+v) — the degenerate fast path is not engaged", ws)
			}
		})
	}
}

// TestNodePhaseConfinementEnforced pins the loud-failure contract: a
// bracketed rank that reaches across its node gets a typed
// *des.CausalityError (Op "confine") at the call site, not a silent
// divergence or an anonymous string panic — the PDES harness keys on the
// type. Every guard fires before any matching or fabric state mutates, so
// the rank recovers in place and exits its phase cleanly. The guards are
// mode-independent — this runs under the serial engine and protects the
// parallel one.
func TestNodePhaseConfinementEnforced(t *testing.T) {
	run := func(name string, body func(p *mpi.Proc, c *mpi.Comm)) {
		t.Run(name, func(t *testing.T) {
			w, err := hierknem.NewWorldPPN(isoSpec(), isoPPN)
			if err != nil {
				t.Fatal(err)
			}
			assertConfineTrap(t, w, name, body)
		})
	}
	run("cross-node send", func(p *mpi.Proc, c *mpi.Comm) {
		// Rank 0 is on node 0; the last rank is on the last node.
		p.Send(c, phantomPerRank(1, 64)[0], c.Size()-1, 7)
	})
	run("wildcard recv on a multi-node comm", func(p *mpi.Proc, c *mpi.Comm) {
		p.Recv(c, phantomPerRank(1, 64)[0], mpi.AnySource, 7)
	})
	run("over-cutoff send", func(p *mpi.Proc, c *mpi.Comm) {
		p.Send(p.NodeComm(), phantomPerRank(1, 8192)[0], 1, 7)
	})
	run("split", func(p *mpi.Proc, c *mpi.Comm) {
		p.NodeComm().Split(p, 0, 0)
	})
}

// assertConfineTrap runs body on rank 0 inside a node phase of w and
// requires it to panic with a typed *des.CausalityError{Op: OpConfine}.
func assertConfineTrap(t *testing.T, w *hierknem.World, name string, body func(p *mpi.Proc, c *mpi.Comm)) {
	t.Helper()
	var recovered interface{}
	err := w.Run(func(p *mpi.Proc) {
		if p.Rank() != 0 {
			return
		}
		c := w.WorldComm()
		p.EnterNodePhase()
		func() {
			defer func() { recovered = recover() }()
			body(p, c)
		}()
		p.ExitNodePhase()
	})
	if err != nil {
		t.Fatal(err)
	}
	if recovered == nil {
		t.Fatalf("%s inside a node phase did not panic", name)
	}
	ce, ok := recovered.(*des.CausalityError)
	if !ok {
		t.Fatalf("%s panicked with %T (%v), want *des.CausalityError", name, recovered, recovered)
	}
	if ce.Op != des.OpConfine {
		t.Fatalf("%s panicked with Op %q, want %q", name, ce.Op, des.OpConfine)
	}
}

// TestGuardElideRefusals pins that the confinement guards cannot be
// switched off: guard elision is retired, so a world built under the
// parallel engine, with or without the hiersan sanitizer, traps a
// cross-node send inside a node phase exactly as the serial engine does.
func TestGuardElideRefusals(t *testing.T) {
	crossNode := func(p *mpi.Proc, c *mpi.Comm) {
		p.Send(c, phantomPerRank(1, 64)[0], c.Size()-1, 7)
	}
	newWorld := func(t *testing.T) *hierknem.World {
		t.Helper()
		w, err := hierknem.NewWorldPPN(isoSpec(), isoPPN)
		if err != nil {
			t.Fatal(err)
		}
		w.SetEngineMode(hierknem.EngineParallel)
		w.SetEngineWorkers(2)
		return w
	}

	t.Run("hiersan forces checked", func(t *testing.T) {
		t.Setenv("HIERSAN", "1")
		w := newWorld(t)
		if w.Sanitizer() == nil {
			t.Fatal("HIERSAN=1 world has no sanitizer attached")
		}
		assertConfineTrap(t, w, "cross-node send", crossNode)
	})

	t.Run("checked is the default", func(t *testing.T) {
		assertConfineTrap(t, newWorld(t), "cross-node send", crossNode)
	})
}

// TestGuardElisionHexIdentical pins the phased hot path with every guard
// live and the hiersan sanitizer attached: for each bracketed personality
// the parallel engine must commit a log hex-identical to the bare serial
// reference at workers 1, 2, 4 and 8, with no sanitizer violation.
func TestGuardElisionHexIdentical(t *testing.T) {
	for _, mod := range phasedPersonalities() {
		mod := mod
		t.Run(mod.Name(), func(t *testing.T) {
			want := personalityLog(t, mod, hierknem.EngineSerial, 0)
			for _, workers := range []int{1, 2, 4, 8} {
				w, err := hierknem.NewWorldPPN(isoSpec(), isoPPN)
				if err != nil {
					t.Fatal(err)
				}
				s := w.EnableSanitizer()
				var violations []string
				s.SetOnViolation(func(msg string) { violations = append(violations, msg) })
				w.SetEngineMode(hierknem.EngineParallel)
				w.SetEngineWorkers(workers)
				var got []string
				smallCollectiveProg(w, mod, &got)
				if len(violations) > 0 {
					t.Fatalf("%s at workers=%d: sanitizer violations %q", mod.Name(), workers, violations)
				}
				if ws := w.Machine.Eng.WindowStats(); workers >= 2 && ws.Phases == 0 {
					t.Fatalf("%s executed no parallel phases at workers=%d (stats %+v)", mod.Name(), workers, ws)
				}
				diffLogs(t, fmt.Sprintf("%s/sanitized/workers=%d", mod.Name(), workers), want, got)
			}
		})
	}
}

// TestPDESScale100xNodePhase is the 100x-paper-scale smoke: 3200 nodes at
// 24 ranks per node (76800 ranks) running bracketed node phases under the
// parallel engine. It proves window execution holds up at depth — thousands
// of simultaneously active domains per window — not that it is fast, so a
// handful of rounds suffices — but the bracket must span several lookahead
// windows (the first window is always serial: it carries the spawn
// resumes), so the round count is sized to push confined traffic well past
// the first horizon. Skipped under -short.
func TestPDESScale100xNodePhase(t *testing.T) {
	if testing.Short() {
		t.Skip("100x-scale smoke skipped in -short mode")
	}
	spec := hierknem.Stremi(3200)
	w, err := hierknem.NewWorldPPN(spec, 24)
	if err != nil {
		t.Fatal(err)
	}
	w.SetEngineMode(hierknem.EngineParallel)
	if err := nodePhaseProg(w, 6, nil); err != nil {
		t.Fatal(err)
	}
	ws := w.Machine.Eng.WindowStats()
	if ws.Windows == 0 || ws.Phases == 0 {
		t.Fatalf("100x scale run executed no parallel phases (stats %+v)", ws)
	}
	if w.Machine.Eng.Processed() == 0 {
		t.Fatal("no events processed")
	}
}
