package mpi

import "fmt"

// Node phases.
//
// A rank that is about to run a node-local stretch of a hierarchical
// collective (the intra-node leader/shadow phases of the paper's Figures 3-5)
// brackets it with EnterNodePhase/ExitNodePhase. The brackets are part of
// the cost model, not annotation: inside a phase ReduceLocal charges the
// unloaded reduction rate instead of installing a memory-bus flow, and
// leaving the phase costs one network latency, the hand-back of the node's
// result to inter-node traffic. The collective personalities place the
// brackets with PhaseEligible, and the bracket analyzer checks that every
// Enter is paired with an Exit on all paths.

// EnterNodePhase starts a node phase. Node phases may not nest.
func (p *Proc) EnterNodePhase() {
	if p.nodePhase {
		panic(fmt.Sprintf("mpi: rank %d entered a node phase twice (node-phase brackets are unbalanced)", p.rank))
	}
	p.nodePhase = true
}

// ExitNodePhase ends the node phase and charges one network latency of
// virtual time.
func (p *Proc) ExitNodePhase() {
	if !p.nodePhase {
		panic(fmt.Sprintf("mpi: rank %d left a node phase it never entered (node-phase brackets are unbalanced)", p.rank))
	}
	p.nodePhase = false
	p.dp.Sleep(p.world.Machine.Spec.NetLatency)
}

// PhaseEligible is the bracket placement rule the collective personalities
// consult before wrapping an intra-node stretch in EnterNodePhase/
// ExitNodePhase: every member of c must live on one node (and there must be
// at least two — a singleton has nothing to bracket), and messages of n
// bytes must stay under both the eager threshold and the fabric bypass
// cutoff. The rule is collective: a stretch is bracketed by every member of
// c or by none, so all of them pay the exit latency.
func (p *Proc) PhaseEligible(c *Comm, n int64) bool {
	return c.IntraNode() && c.Size() > 1 &&
		n < p.world.Conf.EagerThreshold && n < smallCopyCutoff
}
