package anytime

import (
	"math/rand"
	"slices"

	"schedcomp/internal/dag"
	"schedcomp/internal/pq"
	"schedcomp/internal/sched"
)

// chromosome is one GA individual: a topologically consistent priority
// list over all tasks plus a processor choice per task. Decoding
// assigns tasks to processors in list order and re-times greedily with
// the sched builder, so every chromosome maps to a valid schedule.
type chromosome struct {
	order []dag.NodeID // priority list; always a topological order
	proc  []int        // proc[v] = processor for node v
	mk    int64        // makespan of the decoded schedule (set by eval)
}

func (c chromosome) clone() chromosome {
	return chromosome{
		order: append([]dag.NodeID(nil), c.order...),
		proc:  append([]int(nil), c.proc...),
		mk:    c.mk,
	}
}

// decoder decodes chromosomes into timed schedules via the greedy
// re-timing builder, through one placement whose buffers it reuses:
// the GA decodes every offspring, and a fresh placement per decode made
// up most of the quality tier's garbage.
type decoder struct {
	pl      sched.Placement
	count   []int        // per chromosome processor: tasks, then placement index
	backing []dag.NodeID // every processor's order, back to back
}

// decode lays c out as a placement whose used processors are numbered
// densely in index order — the layout Build's Compact produces, so it
// has nothing left to drop — and builds its schedule.
func (d *decoder) decode(g *dag.Graph, c chromosome) (*sched.Schedule, error) {
	if n := len(c.proc); len(d.pl.Proc) != n {
		d.pl.Proc = make([]int, n)
		d.backing = make([]dag.NodeID, n)
	}
	procs := 0
	for _, p := range c.proc {
		procs = max(procs, p+1)
	}
	d.count = slices.Grow(d.count[:0], procs)[:procs]
	clear(d.count)
	for _, p := range c.proc {
		d.count[p]++
	}
	d.pl.Order = d.pl.Order[:0]
	off := 0
	for p, k := range d.count {
		if k == 0 {
			continue
		}
		d.count[p] = len(d.pl.Order)
		d.pl.Order = append(d.pl.Order, d.backing[off:off:off+k])
		off += k
	}
	for _, v := range c.order {
		p := d.count[c.proc[v]]
		d.pl.Proc[v] = p
		d.pl.Order[p] = append(d.pl.Order[p], v)
	}
	return sched.Build(g, &d.pl)
}

// fromSchedule extracts a chromosome from an existing schedule: the
// priority list is a Kahn traversal popping the ready task with the
// earliest start time (ties by node ID), which is topologically
// consistent by construction even when start-time order alone is not
// (zero-weight tasks can share start times with their successors).
// Decoding it reproduces the schedule's placement, so the chromosome's
// makespan equals the schedule's.
func fromSchedule(sc *sched.Schedule) chromosome {
	g := sc.Graph
	n := g.NumNodes()
	c := chromosome{order: make([]dag.NodeID, 0, n), proc: make([]int, n), mk: sc.Makespan}
	indeg := make([]int, n)
	type item struct {
		start int64
		v     dag.NodeID
	}
	h := pq.New(func(a, b item) bool {
		if a.start != b.start {
			return a.start < b.start
		}
		return a.v < b.v
	})
	for v := 0; v < n; v++ {
		c.proc[v] = sc.ByNode[v].Proc
		indeg[v] = g.InDegree(dag.NodeID(v))
		if indeg[v] == 0 {
			h.Push(item{sc.ByNode[v].Start, dag.NodeID(v)})
		}
	}
	for !h.Empty() {
		it := h.Pop()
		c.order = append(c.order, it.v)
		for _, e := range g.Succs(it.v) {
			if indeg[e.To]--; indeg[e.To] == 0 {
				h.Push(item{sc.ByNode[e.To].Start, e.To})
			}
		}
	}
	return c
}

// crossover is precedence-preserving order crossover: the child takes
// parent a's first cut tasks (with a's placements), then the remaining
// tasks in parent b's relative order (with b's placements). A prefix
// of a topological order is downward closed, and b's order restricted
// to the complement keeps every predecessor before its successors, so
// the child is always topologically consistent. The child is written
// into child's slices (length n); taken is scratch of length n.
func crossover(child, a, b chromosome, cut int, taken []bool) chromosome {
	clear(taken)
	child.order = child.order[:0]
	for _, v := range a.order[:cut] {
		child.order = append(child.order, v)
		child.proc[v] = a.proc[v]
		taken[v] = true
	}
	for _, v := range b.order {
		if !taken[v] {
			child.order = append(child.order, v)
			child.proc[v] = b.proc[v]
		}
	}
	return child
}

// mutateOrder moves one task to a random position within its feasible
// window — strictly after its last-positioned predecessor and before
// its first-positioned successor — so the list stays topologically
// consistent. pos is caller-provided scratch of length n.
func mutateOrder(g *dag.Graph, c chromosome, rng *rand.Rand, pos []int) {
	n := len(c.order)
	if n < 2 {
		return
	}
	i := rng.Intn(n)
	v := c.order[i]
	for idx, u := range c.order {
		pos[u] = idx
	}
	lo, hi := 0, n-1
	for _, e := range g.Preds(v) {
		if p := pos[e.To] + 1; p > lo {
			lo = p
		}
	}
	for _, e := range g.Succs(v) {
		if s := pos[e.To] - 1; s < hi {
			hi = s
		}
	}
	if lo > hi {
		return
	}
	j := lo + rng.Intn(hi-lo+1)
	if j == i {
		return
	}
	if j < i {
		copy(c.order[j+1:i+1], c.order[j:i])
	} else {
		copy(c.order[i:j], c.order[i+1:j+1])
	}
	c.order[j] = v
}

// mutateProc reassigns one task to a random processor in [0, procs).
func mutateProc(c chromosome, rng *rand.Rand, procs int) {
	if len(c.proc) == 0 || procs < 1 {
		return
	}
	c.proc[rng.Intn(len(c.proc))] = rng.Intn(procs)
}

// structSeed hashes the graph structure into an RNG seed (FNV-1a over
// node count, edges and weights — the RAND scheduler's recipe), so the
// anytime stream is a deterministic function of the input graph.
func structSeed(g *dag.Graph) int64 {
	h := uint64(1469598103934665603) // FNV offset
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	mix(uint64(g.NumNodes()))
	for _, e := range g.Edges() {
		mix(uint64(e.From)<<32 | uint64(uint32(e.To)))
		mix(uint64(e.Weight))
	}
	for v := 0; v < g.NumNodes(); v++ {
		mix(uint64(g.Weight(dag.NodeID(v))))
	}
	return int64(h >> 1)
}
