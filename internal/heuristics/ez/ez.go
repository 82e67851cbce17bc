// Package ez implements Sarkar's Edge Zeroing clustering heuristic
// (reference [1] of the paper, the work whose granularity definition
// §3.1 extends). Edges are visited in decreasing weight order; each
// edge's endpoint clusters are tentatively merged, and the merge is
// kept only if the estimated parallel time does not increase. Clusters
// become processors.
//
// The parallel-time estimate orders each cluster by descending
// communication-weighted level (a topologically consistent order,
// since a predecessor's level strictly exceeds its successors') and
// replays the common greedy timing model.
//
// Estimator. Every cluster queue is the restriction of one global
// (level desc, id asc) order to the cluster's members, for every
// clustering the algorithm can reach. Under that queue discipline the
// greedy timing model has a closed form: finish(v) = weight(v) +
// max(finish(queue predecessor), max over preds u of finish(u) + comm),
// and because node weights are strictly positive, level(u) > level(v)
// for every edge u→v, so both kinds of dependency point backward in
// the global order and one forward sweep solves the recurrence. A
// trial merge therefore does not rescan the graph: it re-times the two
// affected clusters and propagates along graph edges and queue links
// only while finish times actually change (a bitset over global ranks,
// drained in rank order, keeps the cone in order), reading everything
// else from the committed timing. The full-rescan estimator lives on
// in ez_oracle_test.go as the oracle the incremental one is tested
// against.
package ez

import (
	"context"
	"math/bits"
	"sort"

	"schedcomp/internal/arena"
	"schedcomp/internal/bitset"
	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/sched"
)

func init() {
	heuristics.Register("EZ", func() heuristics.Scheduler { return New() })
}

// EZ is the scheduler. The zero value is ready to use.
type EZ struct {
	// estLog, when non-nil, records the initial estimate followed by
	// the trial estimate of every examined edge, in examination order.
	// Test hook: the oracle test compares the two estimators' logs.
	estLog *[]int64
}

// New returns an EZ scheduler.
func New() *EZ { return &EZ{} }

// Name implements heuristics.Scheduler.
func (e *EZ) Name() string { return "EZ" }

// find resolves x's cluster root with path compression local to p.
//
//lint:boundedidx parent entries only ever hold node indexes in [0,n)
func find(p []int, x int) int {
	for p[x] != x {
		p[x] = p[p[x]]
		x = p[x]
	}
	return x
}

// Schedule implements heuristics.Scheduler.
func (e *EZ) Schedule(g *dag.Graph) (*sched.Placement, error) {
	return e.ScheduleContext(context.Background(), g)
}

// sortedEdges returns the graph's edges in EZ's examination order:
// decreasing weight, ties toward the smaller (From, To) pair.
func sortedEdges(g *dag.Graph) []dag.Edge {
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Weight != edges[j].Weight {
			return edges[i].Weight > edges[j].Weight
		}
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	return edges
}

// ScheduleContext implements heuristics.ContextScheduler: Schedule
// with a cancellation poll once per examined edge.
func (e *EZ) ScheduleContext(ctx context.Context, g *dag.Graph) (*sched.Placement, error) {
	n := g.NumNodes()
	if n == 0 {
		return sched.NewPlacement(0), nil
	}
	level, err := g.BLevels()
	if err != nil {
		return nil, err
	}

	scratch := arena.Get()
	defer scratch.Release()
	st := newState(g, level, scratch)
	current := st.initialTiming()
	if e.estLog != nil {
		*e.estLog = append(*e.estLog, current)
	}
	for _, edge := range sortedEdges(g) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ra, rb := find(st.parent, int(edge.From)), find(st.parent, int(edge.To)) //lint:boundedidx edge endpoints are node IDs in [0,n)
		if ra == rb {
			continue // already zeroed transitively
		}
		merged := st.trial(ra, rb)
		if e.estLog != nil {
			*e.estLog = append(*e.estLog, merged)
		}
		if merged <= current {
			current = merged
			st.commit(ra, rb)
		}
	}
	return st.placement(), nil
}

// state is the incremental estimator: the committed clustering with
// its exact greedy timing, plus an epoch-stamped overlay that prices a
// trial merge without touching the committed arrays. All of it lives
// in pooled arena scratch for the duration of one Schedule call.
type state struct {
	g   *dag.Graph
	csr *dag.CSR
	n   int

	ord  []dag.NodeID // all nodes, (level desc, id asc)
	rank []int32      // rank[v] = position of v in ord

	parent []int // union-find over committed merges; rb survives

	// Committed cluster chains in global order: qprev/qnext link each
	// cluster's members, head/tail index the ends per live root.
	qprev, qnext []int32
	head, tail   []int32

	roots   []int32 // live roots, unordered (swap-removed on merge)
	rootPos []int32 // position of each live root in roots

	fin []int64 // committed finish time of every node

	// Trial overlay. Epoch stamps make every trial O(cone) with no
	// clearing: a slot is live only when its stamp equals epoch.
	epoch   int32
	tf      []int64 // trial finish
	tfEp    []int32
	member  []int32      // stamp: node is in one of the two merging clusters
	touched []dag.NodeID // nodes stamped this trial, for commit

	// Retiming frontier: a bitset over global ranks, popped in
	// ascending order by a forward-only cursor (a word index).
	frontier []uint64
	cursor   int
	pending  int
}

// Every index used by the state methods is a NodeID or a rank in
// [0,n) by construction — ord is a permutation of the node IDs, the
// chain links and root arrays only ever store committed NodeIDs, and
// every state slice is carved at length n — but the slices come out of
// arena scratch, so the proof is beyond the compiler.
//
//lint:boundedidx indexes are NodeIDs/ranks in [0,n), slices carved at n
func newState(g *dag.Graph, level []int64, sc *arena.Scratch) *state {
	n := g.NumNodes()
	st := &state{
		g:       g,
		csr:     g.CSR(),
		n:       n,
		ord:     sc.NodeIDs(n),
		rank:    sc.Int32s(n),
		parent:  sc.Ints(n),
		qprev:   sc.Int32s(n),
		qnext:   sc.Int32s(n),
		head:    sc.Int32s(n),
		tail:    sc.Int32s(n),
		roots:   sc.Int32s(n),
		rootPos: sc.Int32s(n),
		fin:     sc.Int64s(n),
		tf:      sc.Int64s(n),
		tfEp:    sc.Int32s(n),
		member:  sc.Int32s(n),
		touched: sc.NodeIDs(n)[:0],

		frontier: sc.Words(bitset.WordsFor(n)),
	}
	for i := range st.ord {
		st.ord[i] = dag.NodeID(i)
	}
	sort.Slice(st.ord, func(i, j int) bool {
		if level[st.ord[i]] != level[st.ord[j]] {
			return level[st.ord[i]] > level[st.ord[j]]
		}
		return st.ord[i] < st.ord[j]
	})
	for i, v := range st.ord {
		st.rank[v] = int32(i)
	}
	for v := 0; v < n; v++ {
		st.parent[v] = v
		st.qprev[v] = -1
		st.qnext[v] = -1
		st.head[v] = int32(v)
		st.tail[v] = int32(v)
		st.roots[v] = int32(v)
		st.rootPos[v] = int32(v)
	}
	return st
}

// initialTiming times the all-singletons clustering (no queue
// predecessors, every edge pays its communication weight) and returns
// its makespan.
//
//lint:boundedidx indexes are NodeIDs in [0,n), slices carved at n
func (s *state) initialTiming() int64 {
	var ms int64
	for _, v := range s.ord {
		var start int64
		preds, ws := s.csr.Preds(v)
		for j, u := range preds {
			if t := s.fin[u] + ws[j]; t > start {
				start = t
			}
		}
		s.fin[v] = start + s.g.Weight(v)
		if s.fin[v] > ms {
			ms = s.fin[v]
		}
	}
	return ms
}

// finOf reads a node's finish time through the trial overlay.
func (s *state) finOf(v dag.NodeID) int64 {
	if s.tfEp[v] == s.epoch {
		return s.tf[v]
	}
	return s.fin[v]
}

// trialRoot is the clustering's root map under the pending ra→rb merge.
func (s *state) trialRoot(x, ra, rb int) int {
	if r := find(s.parent, x); r != ra {
		return r
	}
	return rb
}

// push schedules node v for retiming this trial. Setting an already
// pending bit is a no-op, so pushes deduplicate for free.
func (s *state) push(v dag.NodeID) {
	r := s.rank[v]
	w, b := &s.frontier[r>>6], uint64(1)<<(r&63)
	if *w&b == 0 {
		*w |= b
		s.pending++
	}
}

// pop removes and returns the smallest pending rank. Every push made
// during a trial targets a rank above the last pop, so the scan only
// ever moves forward from the cursor.
//
//lint:boundedidx pending > 0 guarantees a set bit at or after the cursor
func (s *state) pop() int32 {
	for s.frontier[s.cursor] == 0 {
		s.cursor++
	}
	w := s.frontier[s.cursor]
	s.frontier[s.cursor] = w & (w - 1)
	s.pending--
	return int32(s.cursor<<6 | bits.TrailingZeros64(w))
}

// trial prices merging the clusters rooted at ra and rb and returns
// the resulting makespan, leaving the committed state untouched. It
// seeds the retiming frontier with both clusters' members and then chases
// the change cone: a node is re-timed only if a predecessor's finish,
// its queue predecessor's finish, or one of its communication costs
// may have changed, and propagation stops wherever the recomputed
// finish equals the committed one.
//
//lint:boundedidx indexes are NodeIDs/ranks in [0,n), slices carved at n
func (s *state) trial(ra, rb int) int64 {
	s.epoch++
	s.cursor = int(min(s.rank[s.head[ra]], s.rank[s.head[rb]]) >> 6)
	s.touched = s.touched[:0]
	for x := s.head[ra]; x != -1; x = s.qnext[x] {
		s.member[x] = s.epoch
		s.push(dag.NodeID(x))
	}
	for x := s.head[rb]; x != -1; x = s.qnext[x] {
		s.member[x] = s.epoch
		s.push(dag.NodeID(x))
	}

	lastMerged := dag.NodeID(-1) // most recently re-timed member: v's trial queue predecessor
	for s.pending > 0 {
		v := s.ord[s.pop()]
		isMember := s.member[v] == s.epoch
		var start int64
		if isMember {
			if lastMerged >= 0 {
				start = s.finOf(lastMerged)
			}
		} else if p := s.qprev[v]; p >= 0 {
			start = s.finOf(dag.NodeID(p))
		}
		rv := s.trialRoot(int(v), ra, rb)
		preds, ws := s.csr.Preds(v)
		for j, u := range preds {
			t := s.finOf(u)
			if s.trialRoot(int(u), ra, rb) != rv {
				t += ws[j]
			}
			if t > start {
				start = t
			}
		}
		f := start + s.g.Weight(v)
		if isMember {
			lastMerged = v
		}
		if f == s.fin[v] {
			continue // unchanged: nothing downstream can move through v
		}
		s.tf[v] = f
		s.tfEp[v] = s.epoch
		s.touched = append(s.touched, v)
		succs, _ := s.csr.Succs(v)
		for _, t := range succs {
			s.push(t)
		}
		// Members' queue successors are members too (same committed
		// chain) and already seeded; only foreign chains need the push.
		if nx := s.qnext[v]; nx >= 0 {
			s.push(dag.NodeID(nx))
		}
	}

	// Finish times grow along every queue, so the makespan is the max
	// over live cluster tails; the merged tail is whichever of the two
	// old tails comes later in global order.
	mergedTail := s.tail[ra]
	if s.rank[s.tail[rb]] > s.rank[mergedTail] {
		mergedTail = s.tail[rb]
	}
	var ms int64
	for _, r := range s.roots {
		t := s.tail[r]
		switch int(r) {
		case ra:
			continue
		case rb:
			t = mergedTail
		}
		if f := s.finOf(dag.NodeID(t)); f > ms {
			ms = f
		}
	}
	return ms
}

// commit applies the most recent trial: overlay finish times become
// committed, the two chains are merged in global order, and ra's
// cluster is absorbed into rb's.
//
//lint:boundedidx indexes are NodeIDs/root positions in [0,n)
func (s *state) commit(ra, rb int) {
	for _, v := range s.touched {
		s.fin[v] = s.tf[v]
	}
	a, b := s.head[ra], s.head[rb]
	var h, t int32 = -1, -1
	for a != -1 || b != -1 {
		var x int32
		if b == -1 || (a != -1 && s.rank[a] < s.rank[b]) {
			x, a = a, s.qnext[a]
		} else {
			x, b = b, s.qnext[b]
		}
		if t == -1 {
			h = x
		} else {
			s.qnext[t] = x
		}
		s.qprev[x] = t
		t = x
	}
	s.qnext[t] = -1
	s.head[rb], s.tail[rb] = h, t
	s.parent[ra] = rb
	i := s.rootPos[ra]
	lastRoot := s.roots[len(s.roots)-1]
	s.roots[i] = lastRoot
	s.rootPos[lastRoot] = i
	s.roots = s.roots[:len(s.roots)-1]
}

// placement lays each committed cluster on its own processor, roots in
// ascending ID order, members in chain (level desc, id asc) order —
// the identical layout the full-rescan placement computes by sorting.
//
//lint:boundedidx chain links only hold NodeIDs in [0,n)
func (s *state) placement() *sched.Placement {
	sort.Slice(s.roots, func(i, j int) bool { return s.roots[i] < s.roots[j] })
	pl := sched.NewPlacement(s.n)
	for pi, r := range s.roots {
		for v := s.head[r]; v != -1; v = s.qnext[v] {
			pl.Assign(dag.NodeID(v), pi)
		}
	}
	return pl
}
