package mpi

import (
	"fmt"
	"sort"
)

// Comm is a communicator: an ordered group of world ranks with a private
// matching context. One Comm object is shared by all member processes (the
// simulation lives in one address space); per-process state such as "my
// rank" is derived from the calling Proc.
type Comm struct {
	world *World
	ctx   int
	ranks []int       // comm rank -> world rank
	index map[int]int // world rank -> comm rank

	barrier  *barrierState
	splitOp  *splitState
	nodeSpan int // number of distinct nodes, computed at creation

	bb   map[string]*bbEntry
	seqs map[int]int
}

func (w *World) newComm(ranks []int) *Comm {
	c := &Comm{world: w, ctx: w.nextCtx, ranks: ranks, index: make(map[int]int, len(ranks))}
	w.nextCtx++
	nodes := map[int]bool{}
	for i, r := range ranks {
		c.index[r] = i
		nodes[w.procs[r].core.NodeID] = true
	}
	c.nodeSpan = len(nodes)
	return c
}

// WorldComm returns the communicator containing every rank, creating it on
// first use.
func (w *World) WorldComm() *Comm {
	if len(w.procs) == 0 {
		panic("mpi: empty world")
	}
	if w.worldComm == nil {
		ranks := make([]int, len(w.procs))
		for i := range ranks {
			ranks[i] = i
		}
		w.worldComm = w.newComm(ranks)
	}
	return w.worldComm
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// Rank returns p's rank within c, or panics if p is not a member.
func (c *Comm) Rank(p *Proc) int {
	r, ok := c.index[p.rank]
	if !ok {
		panic(fmt.Sprintf("mpi: world rank %d not in communicator", p.rank))
	}
	return r
}

// Member reports whether p belongs to c.
func (c *Comm) Member(p *Proc) bool {
	_, ok := c.index[p.rank]
	return ok
}

// WorldRank translates a comm rank to a world rank.
func (c *Comm) WorldRank(rank int) int {
	if rank < 0 || rank >= len(c.ranks) {
		panic(fmt.Sprintf("mpi: rank %d out of range for communicator of size %d", rank, len(c.ranks)))
	}
	return c.ranks[rank]
}

// Proc returns the process at a comm rank.
func (c *Comm) Proc(rank int) *Proc { return c.world.procs[c.WorldRank(rank)] }

// IntraNode reports whether all members live on one node.
func (c *Comm) IntraNode() bool { return c.nodeSpan <= 1 }

// NodeSpan returns the number of distinct nodes hosting members.
func (c *Comm) NodeSpan() int { return c.nodeSpan }

// splitState stages a collective Comm.Split.
type splitState struct {
	entries map[int]splitEntry // comm rank -> (color, key)
	result  map[int]*Comm      // comm rank -> new comm (nil for undefined color)
	waiters []*Proc
}

type splitEntry struct{ color, key int }

// Undefined is the color that opts a rank out of Split (it receives nil).
const Undefined = -32766

// Split partitions the communicator by color; within a color, ranks are
// ordered by key, ties broken by original rank (MPI semantics). Collective:
// all members must call it. Ranks passing Undefined receive nil.
func (c *Comm) Split(p *Proc, color, key int) *Comm {
	me := c.Rank(p)
	if c.splitOp == nil {
		c.splitOp = &splitState{entries: make(map[int]splitEntry)}
	}
	op := c.splitOp
	op.entries[me] = splitEntry{color, key}
	if len(op.entries) < c.Size() {
		op.waiters = append(op.waiters, p)
		for op.result == nil {
			p.dp.Park()
		}
		return op.result[me]
	}

	// Last arriver builds the result and releases everyone.
	colors := make(map[int][]int) // color -> comm ranks
	for r, e := range op.entries {
		if e.color != Undefined {
			colors[e.color] = append(colors[e.color], r)
		}
	}
	op.result = make(map[int]*Comm, c.Size())
	sortedColors := make([]int, 0, len(colors))
	for col := range colors {
		sortedColors = append(sortedColors, col)
	}
	sort.Ints(sortedColors)
	for _, col := range sortedColors {
		members := colors[col]
		sort.Slice(members, func(i, j int) bool {
			a, b := members[i], members[j]
			if op.entries[a].key != op.entries[b].key {
				return op.entries[a].key < op.entries[b].key
			}
			return a < b
		})
		worldRanks := make([]int, len(members))
		for i, r := range members {
			worldRanks[i] = c.WorldRank(r)
		}
		sub := c.world.newComm(worldRanks)
		for _, r := range members {
			op.result[r] = sub
		}
	}
	c.splitOp = nil
	for _, w := range op.waiters {
		w.dp.Wake()
	}
	return op.result[me]
}

// barrierState implements a sense-reversing centralized barrier for
// intra-node comms and stages the dissemination barrier's tag space.
type barrierState struct {
	count   int
	gen     int
	waiters []*Proc
}

// Barrier blocks until every member has entered. Intra-node communicators
// use a flag-based shared-memory barrier costing one shm latency per
// process; communicators spanning nodes use a dissemination barrier with
// zero-byte messages.
func (c *Comm) Barrier(p *Proc) {
	if c.Size() == 1 {
		return
	}
	if c.IntraNode() {
		p.dp.Sleep(c.world.Machine.Spec.ShmLatency)
		if c.barrier == nil {
			c.barrier = &barrierState{}
		}
		b := c.barrier
		b.count++
		if b.count == c.Size() {
			b.count = 0
			b.gen++
			for _, w := range b.waiters {
				w.dp.Wake()
			}
			b.waiters = nil
			return
		}
		myGen := b.gen
		b.waiters = append(b.waiters, p)
		for b.gen == myGen {
			p.dp.Park()
		}
		return
	}
	c.disseminationBarrier(p)
}

// reserved internal tag space (user tags must be non-negative and modest).
const internalTagBase = 1 << 24

func (c *Comm) disseminationBarrier(p *Proc) {
	me := c.Rank(p)
	n := c.Size()
	empty := c.world.empty
	for round, dist := 0, 1; dist < n; round, dist = round+1, dist*2 {
		to := (me + dist) % n
		from := (me - dist + n) % n
		tag := internalTagBase + round
		r := p.Irecv(c, empty, from, tag)
		s := p.Isend(c, empty, to, tag)
		p.Wait(r)
		p.Wait(s)
	}
}
