package mpi

import (
	"hierknem/internal/des"
)

// Node-phase confinement.
//
// A rank that is about to run a node-local stretch of a hierarchical
// collective (the intra-node leader/shadow phases of the paper's Figures 3-5)
// can declare it with EnterNodePhase. Between the brackets the rank promises
// to touch only state of its own node: sub-eager-threshold messages to ranks
// of the same node, node-local barriers and blackboards, Compute, and
// nothing that loads fabric resources (which fold into the global domain).
// Under the parallel engine, windows whose runnable events all belong to
// bracketed ranks execute their nodes on separate workers — this is where
// conservative PDES actually pays — while the serial engine treats the
// brackets as pure annotation plus the exit latency, so the two modes stay
// hex-identical by construction.
//
// The promise is checked, not trusted: a bracketed rank that sends across
// nodes, posts a wildcard receive on a multi-node communicator, calls Split,
// or moves a message big enough to need the fabric gets a CausalityError
// naming the operation, never a silent divergence. The per-rank envelope and
// posting free lists need no extra locking under this discipline — they are
// per-rank heads (a sharding strictly finer than per-domain, each head in
// its own heap-allocated Proc), and every alloc/release runs either on the
// owning node's worker or under the serial coordinator.

// EnterNodePhase declares that this rank, until ExitNodePhase, communicates
// only within its own node. Node phases may not nest.
func (p *Proc) EnterNodePhase() {
	p.dp.EnterConfined(int32(p.core.NodeID) + 1)
}

// ExitNodePhase ends the node phase. Leaving costs one network latency of
// virtual time — the engine's lookahead — in both engine modes, which is
// what lets a parallel window retire completely before the rank rejoins
// global-domain traffic.
func (p *Proc) ExitNodePhase() {
	p.dp.ExitConfined(p.world.Machine.Spec.NetLatency)
}

// InNodePhase reports whether the rank is between node-phase brackets.
func (p *Proc) InNodePhase() bool { return p.dp.Confined() }

// PhaseEligible is the bracket placement rule the collective personalities
// consult before wrapping an intra-node stretch in EnterNodePhase/
// ExitNodePhase: every member of c must live on one node (and there must be
// at least two — a singleton has nothing to confine), and messages of n
// bytes must stay under both the eager threshold (rendezvous transfers park
// the sender on global-domain fabric state) and the fabric bypass cutoff
// (larger copies install fabric flows). The rule is necessarily collective:
// a stretch may only be bracketed when every member of c — the leader
// included — brackets it, because a confined rank waking an unconfined one
// mid-phase is a causality violation the engine refuses.
func (p *Proc) PhaseEligible(c *Comm, n int64) bool {
	return c.IntraNode() && c.Size() > 1 &&
		n < p.world.Conf.EagerThreshold && n < smallCopyCutoff
}

// confineCheckSend validates an Isend issued inside a node phase: the
// destination must share the sender's node and the payload must stay under
// both the eager threshold and the fabric bypass cutoff (larger copies
// install fabric flows, which are global-domain state).
func (p *Proc) confineCheckSend(target *Proc, size int64) {
	if !p.dp.Confined() {
		return
	}
	if target.core.NodeID != p.core.NodeID {
		panic(&des.CausalityError{Op: des.OpConfine, Domain: int32(target.core.NodeID) + 1, At: p.dp.Now()})
	}
	if size >= p.world.Conf.EagerThreshold || size >= smallCopyCutoff {
		// Same typed error as the cross-node case: an oversized confined
		// send couples the rank to global-domain fabric state, and callers
		// (tests, the PDES harness) key on Op rather than message text.
		panic(&des.CausalityError{Op: des.OpConfine, Domain: int32(p.core.NodeID) + 1, At: p.dp.Now()})
	}
}

// confineCheckRecv validates an Irecv issued inside a node phase: the source
// must be a rank of the sender's node, or a wildcard on a communicator
// confined to this node.
func (p *Proc) confineCheckRecv(c *Comm, srcWorld int) {
	if !p.dp.Confined() {
		return
	}
	if srcWorld == AnySource {
		if !c.IntraNode() {
			panic(&des.CausalityError{Op: des.OpConfine, Domain: 0, At: p.dp.Now()})
		}
		return
	}
	if src := p.world.procs[srcWorld]; src.core.NodeID != p.core.NodeID {
		panic(&des.CausalityError{Op: des.OpConfine, Domain: int32(src.core.NodeID) + 1, At: p.dp.Now()})
	}
}
