// Package dsc implements Dominant Sequence Clustering (Yang &
// Gerasoulis), following the pseudocode in Appendix A.1 of the paper.
//
// DSC is an edge-zeroing clustering algorithm: it repeatedly examines
// the highest-priority free task (priority = startbound + level, where
// level includes both node and communication weights) and either merges
// it into the parent cluster that minimizes its start time (zeroing the
// connecting edges) or starts a new cluster. Two acceptance tests guard
// the zeroing:
//
//	CT1: merging into a parent cluster must not delay the task beyond
//	     the start time it would get on a fresh cluster (its
//	     startbound). Note the comparison in the paper's Figure 7 is
//	     written inverted relative to its own stated guarantee
//	     ("parallel time is not increased"); we implement the
//	     guarantee.
//	CT2: when a partially free task (some predecessors scheduled, some
//	     not) outranks the free task, the merge must additionally not
//	     delay that task's eventual start through the cluster it would
//	     use (the paper's "dominant sequence reduction warranty").
//
// Each resulting cluster becomes one processor.
package dsc

import (
	"context"

	"schedcomp/internal/arena"
	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/sched"
)

func init() {
	heuristics.Register("DSC", func() heuristics.Scheduler { return New() })
}

// DSC is the scheduler. The zero value is ready to use.
//
// Levels are maintained incrementally: placing a task on a fresh
// cluster zeroes no edges and changes no level, and merging a task
// into a parent cluster only lowers levels inside the ancestor cone of
// the zeroed edges, which is repaired in reverse topological order
// (see refreshCone). The original whole-graph refresh every round is
// kept as the test oracle; the two produce identical placements
// (asserted by TestIncrementalMatchesFullRecompute).
type DSC struct{}

// New returns a DSC scheduler.
func New() *DSC { return &DSC{} }

// Name implements heuristics.Scheduler.
func (d *DSC) Name() string { return "DSC" }

type state struct {
	g       *dag.Graph
	csr     *dag.CSR       // flat adjacency view of g, same revision
	cluster []int          // node -> cluster, -1 unscheduled
	members [][]dag.NodeID // cluster -> ordered tasks
	free    []int64        // cluster -> time it becomes free
	st      []int64        // node -> scheduled start time
	nsched  []int          // node -> count of scheduled predecessors
	level   []int64        // maintained with zeroed edges

	// Epoch-stamped cluster marks: bestParentCluster and ct2
	// deduplicate parent clusters against mark (slot live when equal to
	// markEp), replacing a per-call map without changing which cluster
	// wins — the map only answered membership, never ordered anything.
	mark   []int32
	markEp int32

	// Incremental-maintenance state; nil in the hand-built unit-test
	// states, which only place tasks on fresh clusters.
	pos    []int        // cached topo position of each node
	dirty  []dag.NodeID // max-heap of pending nodes, keyed by pos
	inHeap []bool       // heap membership, to coalesce duplicates
}

// Schedule implements heuristics.Scheduler.
func (d *DSC) Schedule(g *dag.Graph) (*sched.Placement, error) {
	return d.ScheduleContext(context.Background(), g)
}

// ScheduleContext implements heuristics.ContextScheduler: Schedule
// with a cancellation poll once per placed task.
func (d *DSC) ScheduleContext(ctx context.Context, g *dag.Graph) (*sched.Placement, error) {
	// Per-call working arrays come from the pooled arena; only the
	// Placement escapes.
	scratch := arena.Get()
	defer scratch.Release()
	s, err := initState(g, scratch)
	if err != nil {
		return nil, err
	}
	for scheduled := 0; scheduled < g.NumNodes(); scheduled++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.step()
	}
	return s.placement(), nil
}

// initState returns the state of g before any task is placed, with
// its working arrays taken from scratch.
func initState(g *dag.Graph, scratch *arena.Scratch) (*state, error) {
	pos, err := g.TopoPositions()
	if err != nil {
		return nil, err
	}
	bl, err := g.BLevels()
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	s := &state{
		g:       g,
		csr:     g.CSR(),
		cluster: scratch.Ints(n),
		st:      scratch.Int64s(n),
		nsched:  scratch.Ints(n),
		level:   scratch.Int64s(n),
		mark:    scratch.Int32s(n),
		// Read-only snapshot of the cached topo positions; DSC never
		// writes through it.
		pos:    pos, //lint:ownedcopy
		inHeap: scratch.Bools(n),
		dirty:  scratch.NodeIDs(n)[:0],
	}
	for i := range s.cluster {
		s.cluster[i] = -1
	}
	// With no clusters yet, no edge is zeroed: the initial levels are
	// exactly the graph's b-levels (shared cached slice — copied
	// because place() lowers them in place).
	copy(s.level, bl)
	return s, nil
}

// step places the highest-priority free task: into its best parent
// cluster when the acceptance tests allow it, else on a new cluster.
func (s *state) step() {
	nx := s.topFree()
	ny := s.topPartialFree()

	target := -1 // cluster to merge nx into; -1 = new cluster
	if ny < 0 || s.priority(nx) > s.priority(ny) {
		if c, ok := s.bestParentCluster(nx); ok && s.startOn(c, nx) <= s.startBound(nx) {
			target = c // CT1 holds
		}
	} else {
		// The partially free task outranks nx: zero only when both
		// CT1 and CT2 hold.
		if c, ok := s.bestParentCluster(nx); ok &&
			s.startOn(c, nx) <= s.startBound(nx) && s.ct2(c, nx, ny) {
			target = c
		}
	}
	s.place(nx, target)
}

// placement turns the clusters into a placement, one processor each.
func (s *state) placement() *sched.Placement {
	pl := sched.NewPlacement(s.g.NumNodes())
	for c, ms := range s.members {
		for _, v := range ms {
			pl.Assign(v, c)
		}
	}
	return pl
}

// levelOf recomputes one node's level from its successors' current
// levels and effective (cluster-aware) edge weights.
func (s *state) levelOf(v dag.NodeID) int64 {
	var best int64
	succs, ws := s.csr.Succs(v)
	for j, to := range succs {
		c := s.level[to] + s.effWeight(v, to, ws[j])
		if c > best {
			best = c
		}
	}
	return s.g.Weight(v) + best
}

// refreshCone restores the level invariant after v was merged into
// cluster c: the edges from v's cluster-c predecessors to v just went
// to zero, so only those predecessors — and transitively their
// ancestors, when a level actually drops — can change. Nodes are
// repaired in decreasing topological position (a max-heap keyed by the
// cached topo order), so every node's successors are final before the
// node itself is recomputed, exactly as in the full reverse-topo
// sweep.
func (s *state) refreshCone(v dag.NodeID, c int) {
	preds, _ := s.csr.Preds(v)
	for _, p := range preds {
		if s.cluster[p] == c {
			s.pushDirty(p)
		}
	}
	for len(s.dirty) > 0 {
		u := s.popDirty()
		nl := s.levelOf(u)
		if nl == s.level[u] {
			continue
		}
		s.level[u] = nl
		ups, _ := s.csr.Preds(u)
		for _, p := range ups {
			s.pushDirty(p)
		}
	}
}

// pushDirty adds v to the pending max-heap unless already queued.
func (s *state) pushDirty(v dag.NodeID) {
	if s.inHeap[v] {
		return
	}
	s.inHeap[v] = true
	h, pos := s.dirty, s.pos
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if pos[h[p]] >= pos[h[i]] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	s.dirty = h
}

// popDirty removes and returns the pending node with the greatest
// topological position.
func (s *state) popDirty() dag.NodeID {
	h, pos := s.dirty, s.pos
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h) && pos[h[l]] > pos[h[big]] {
			big = l
		}
		if r < len(h) && pos[h[r]] > pos[h[big]] {
			big = r
		}
		if big == i {
			break
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
	s.dirty = h
	s.inHeap[top] = false
	return top
}

func (s *state) effWeight(u, v dag.NodeID, w int64) int64 {
	if s.cluster[u] != -1 && s.cluster[u] == s.cluster[v] {
		return 0
	}
	return w
}

// isFree reports whether v is unscheduled with every predecessor
// scheduled.
func (s *state) isFree(v dag.NodeID) bool {
	return s.cluster[v] == -1 && s.nsched[v] == s.csr.InDegree(v)
}

// isPartialFree reports whether v is unscheduled with at least one
// scheduled and at least one unscheduled predecessor.
func (s *state) isPartialFree(v dag.NodeID) bool {
	return s.cluster[v] == -1 && s.nsched[v] > 0 && s.nsched[v] < s.csr.InDegree(v)
}

// startBound is the paper's startbound: the earliest v could start on a
// fresh cluster, i.e. the max arrival time over scheduled predecessors.
func (s *state) startBound(v dag.NodeID) int64 {
	var b int64
	preds, ws := s.csr.Preds(v)
	for j, p := range preds {
		if s.cluster[p] == -1 {
			continue
		}
		t := s.st[p] + s.g.Weight(p) + ws[j]
		if t > b {
			b = t
		}
	}
	return b
}

// priority(v) = startbound(v) + level(v).
func (s *state) priority(v dag.NodeID) int64 { return s.startBound(v) + s.level[v] }

// topFree returns the free node with the highest priority (ties to the
// lower ID). There is always at least one free node in a DAG with
// unscheduled nodes.
func (s *state) topFree() dag.NodeID {
	best := dag.NodeID(-1)
	var bp int64
	for i := 0; i < s.g.NumNodes(); i++ {
		v := dag.NodeID(i)
		if !s.isFree(v) {
			continue
		}
		if p := s.priority(v); best < 0 || p > bp {
			best, bp = v, p
		}
	}
	if best < 0 {
		panic("dsc: no free node in acyclic graph with unscheduled nodes")
	}
	return best
}

// topPartialFree returns the partially free node with the highest
// priority, or -1 if none exists.
func (s *state) topPartialFree() dag.NodeID {
	best := dag.NodeID(-1)
	var bp int64
	for i := 0; i < s.g.NumNodes(); i++ {
		v := dag.NodeID(i)
		if !s.isPartialFree(v) {
			continue
		}
		if p := s.priority(v); best < 0 || p > bp {
			best, bp = v, p
		}
	}
	return best
}

// startOn returns ST(c, v): the start time v would get appended to
// cluster c, with edges from predecessors inside c zeroed.
func (s *state) startOn(c int, v dag.NodeID) int64 {
	t := s.free[c]
	preds, ws := s.csr.Preds(v)
	for j, p := range preds {
		if s.cluster[p] == -1 {
			continue
		}
		arrive := s.st[p] + s.g.Weight(p)
		if s.cluster[p] != c {
			arrive += ws[j]
		}
		if arrive > t {
			t = arrive
		}
	}
	return t
}

// bestParentCluster returns the parent cluster minimizing ST(c, v), or
// ok == false when v has no scheduled predecessors.
func (s *state) bestParentCluster(v dag.NodeID) (int, bool) {
	best, ok := -1, false
	var bt int64
	s.markEp++
	preds, _ := s.csr.Preds(v)
	for _, p := range preds {
		c := s.cluster[p]
		if c == -1 || s.mark[c] == s.markEp {
			continue
		}
		s.mark[c] = s.markEp
		t := s.startOn(c, v)
		if !ok || t < bt || (t == bt && c < best) {
			best, bt, ok = c, t, true
		}
	}
	return best, ok
}

// ct2 checks the paper's warranty for the top partially free node ny:
// for every scheduled parent cluster of ny, the start time ny would get
// there must not exceed ny's startbound — evaluated as if nx had
// already been appended to cluster c.
func (s *state) ct2(c int, nx, ny dag.NodeID) bool {
	bound := s.startBound(ny)
	newFreeC := s.startOn(c, nx) + s.g.Weight(nx)
	s.markEp++
	preds, _ := s.csr.Preds(ny)
	for _, p := range preds {
		ci := s.cluster[p]
		if ci == -1 || s.mark[ci] == s.markEp {
			continue
		}
		s.mark[ci] = s.markEp
		st := s.startOn(ci, ny)
		if ci == c && newFreeC > st {
			st = newFreeC
		}
		if st > bound {
			return false
		}
	}
	return true
}

// place commits v to cluster c (or a new cluster when c < 0).
func (s *state) place(v dag.NodeID, c int) {
	merged := c >= 0
	if c < 0 {
		c = len(s.members)
		s.members = append(s.members, nil)
		s.free = append(s.free, 0)
	}
	start := s.startOn(c, v)
	s.cluster[v] = c
	s.st[v] = start
	s.free[c] = start + s.g.Weight(v)
	s.members[c] = append(s.members[c], v)
	succs, _ := s.csr.Succs(v)
	for _, to := range succs {
		s.nsched[to]++
	}
	// A fresh cluster zeroes no edges, so levels are untouched; a
	// merge zeroes the edges from v's cluster-c predecessors.
	if merged {
		s.refreshCone(v, c)
	}
}
