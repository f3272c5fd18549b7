// Package bracket exercises the bracket analyzer: unbalanced
// EnterNodePhase/ExitNodePhase pairs — a return path that skips the exit,
// nested enters, an exit with no enter, mismatched guards on the size-gated
// idiom, and a conditional branch that leaves a phase open. The balanced
// shapes the real collectives ship (bare pairs, guarded pairs, a deferred
// exit, pairs completed inside a leader branch) must stay silent.
package bracket

import (
	"hierknem/internal/buffer"
	"hierknem/internal/mpi"
)

// missingExitOnReturn forgets the exit on the early-return path.
func missingExitOnReturn(p *mpi.Proc, c *mpi.Comm, leader bool) {
	p.EnterNodePhase()
	if leader {
		c.Barrier(p)
		return // want `return inside a node phase entered at line 16`
	}
	c.Barrier(p)
	p.ExitNodePhase()
}

// nestedEnter opens a second phase inside the first; the mpi layer panics on
// the first run that reaches this, the analyzer catches it statically.
func nestedEnter(p *mpi.Proc, c *mpi.Comm) {
	p.EnterNodePhase()
	c.Barrier(p)
	p.EnterNodePhase() // want `nested EnterNodePhase: a node phase is already open since line 28`
	c.Barrier(p)
	p.ExitNodePhase()
	p.ExitNodePhase()
}

// exitWithoutEnter pops a bracket that was never pushed.
func exitWithoutEnter(p *mpi.Proc, c *mpi.Comm) {
	c.Barrier(p)
	p.ExitNodePhase() // want `ExitNodePhase without a matching EnterNodePhase`
}

// guardMismatch gates the enter and the exit on different conditions, so
// the bracket can open without closing.
func guardMismatch(p *mpi.Proc, c *mpi.Comm, buf *buffer.Buffer) {
	bracket := p.PhaseEligible(c, buf.Len())
	other := buf.Len() < 512
	if bracket {
		p.EnterNodePhase()
	}
	c.Barrier(p)
	if other {
		p.ExitNodePhase() // want `ExitNodePhase guard "other" does not match the EnterNodePhase guard "bracket"`
	}
}

// neverExits opens a phase and falls off the end of the function.
func neverExits(p *mpi.Proc, c *mpi.Comm) {
	p.EnterNodePhase() // want `EnterNodePhase is not matched by an ExitNodePhase on every path out of the function`
	c.Barrier(p)
}

// branchLeak enters inside one branch only: code after the if runs
// bracketed on some paths and unbracketed on others.
func branchLeak(p *mpi.Proc, c *mpi.Comm, leader bool) {
	if leader {
		c.Barrier(p)
		p.EnterNodePhase() // want `EnterNodePhase inside a conditional branch is not exited before the branch ends`
	}
	c.Barrier(p)
	p.ExitNodePhase() // want `ExitNodePhase without a matching EnterNodePhase`
}

// --- balanced shapes: everything below must produce no findings ---

// barePair is the bcastSmall shape: unconditional collective bracket.
func barePair(p *mpi.Proc, c *mpi.Comm, leader bool) {
	p.EnterNodePhase()
	if leader {
		c.Barrier(p)
		c.Barrier(p)
	} else {
		c.Barrier(p)
	}
	p.ExitNodePhase()
}

// guardedPair is the shipped size-gated idiom, including an early return
// before the bracket opens.
func guardedPair(p *mpi.Proc, c *mpi.Comm, buf *buffer.Buffer) {
	if c.Size() <= 1 {
		return
	}
	bracket := p.PhaseEligible(c, buf.Len())
	if bracket {
		p.EnterNodePhase()
	}
	c.Barrier(p)
	if bracket {
		p.ExitNodePhase()
	}
}

// leaderBranches completes guarded pairs independently inside each branch,
// with a return from the leader arm — the Scatter/Gather shape.
func leaderBranches(p *mpi.Proc, c *mpi.Comm, buf *buffer.Buffer, leader bool) {
	bracket := p.PhaseEligible(c, buf.Len())
	if leader {
		if bracket {
			p.EnterNodePhase()
		}
		c.Barrier(p)
		if bracket {
			p.ExitNodePhase()
		}
		return
	}
	if bracket {
		p.EnterNodePhase()
	}
	c.Barrier(p)
	if bracket {
		p.ExitNodePhase()
	}
}

// deferredExit closes the phase however the function leaves.
func deferredExit(p *mpi.Proc, c *mpi.Comm, leader bool) {
	p.EnterNodePhase()
	defer p.ExitNodePhase()
	if leader {
		return
	}
	c.Barrier(p)
}

// loopInside keeps the bracket balance across iteration bodies.
func loopInside(p *mpi.Proc, c *mpi.Comm) {
	for i := 0; i < 4; i++ {
		p.EnterNodePhase()
		c.Barrier(p)
		p.ExitNodePhase()
	}
}
