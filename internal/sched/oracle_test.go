package sched

// Test oracles: the scan-based timing builder and the sort-based
// validator that buildWith and Validate replaced, kept verbatim so the
// property and fuzz tests can require identical results from the
// production versions.

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"schedcomp/internal/arena"
	"schedcomp/internal/dag"
)

// candBlocked marks a processor with no schedulable queue head.
const candBlocked = int64(^uint64(0) >> 1)

// oracleBuildWith is BuildWith for placements already known to pass Check.
//
// Rather than rescanning every processor's queue head each round, the
// loop caches each processor's candidate start time and recomputes only
// the entries a commitment can have changed: the committing processor
// itself (its queue advanced and its free time moved) and any processor
// whose head was blocked on the committed node (tracked by the waiter
// lists). A cached candidate cannot go stale any other way — a ready
// head's start time depends only on its (already finished) predecessors
// and its own processor's free time — so the incremental loop commits
// the identical task sequence the full rescan would.
func oracleBuildWith(g *dag.Graph, pl *Placement, delay DelayFunc) (*Schedule, error) {
	if delay == nil {
		delay = UniformDelay
	}
	n := g.NumNodes()
	numProcs := len(pl.Order)
	s := &Schedule{Graph: g, ByNode: make([]Assignment, n), NumProcs: numProcs}
	if n == 0 {
		return s, nil
	}
	csr := g.CSR()
	// Working arrays come zeroed from the pooled arena; only the
	// resulting Schedule's ByNode escapes the call.
	scratch := arena.Get()
	defer scratch.Release()
	done := scratch.Bools(n)
	finish := scratch.Int64s(n)
	// waiterHead[v] is the first processor whose queue head is blocked
	// on node v, waiterNext chains the rest (each processor waits on at
	// most one node at a time).
	waiterHead := scratch.Int32s(n)
	head := scratch.Ints(numProcs)
	free := scratch.Int64s(numProcs)
	// cand[p] caches processor p's candidate start time (candBlocked
	// when its queue head is not ready or the queue is empty);
	// candDirty marks entries that must be recomputed this round.
	cand := scratch.Int64s(numProcs)
	candDirty := scratch.Bools(numProcs)
	waiterNext := scratch.Int32s(numProcs)
	for i := range waiterHead {
		waiterHead[i] = -1
	}
	for p := range candDirty {
		candDirty[p] = true
	}
	remaining := n
	var candHits, candMisses, wakeups uint64
	for remaining > 0 {
		for p := 0; p < numProcs; p++ {
			if !candDirty[p] {
				candHits++
				continue
			}
			candMisses++
			candDirty[p] = false
			if head[p] >= len(pl.Order[p]) {
				cand[p] = candBlocked
				continue
			}
			v := pl.Order[p][head[p]]
			var start int64
			ready := true
			preds, ws := csr.Preds(v)
			for j, u := range preds {
				if !done[u] {
					// Park p on the first unfinished predecessor; its
					// completion re-dirties the candidate.
					waiterNext[p] = waiterHead[u]
					waiterHead[u] = int32(p)
					ready = false
					break
				}
				if t := finish[u] + delay(pl.Proc[u], p, ws[j]); t > start {
					start = t
				}
			}
			if !ready {
				cand[p] = candBlocked
				continue
			}
			if start < free[p] {
				start = free[p]
			}
			cand[p] = start
		}
		// Commit the smallest candidate (ties to the lower processor).
		bestProc := -1
		var bestStart int64
		for p := 0; p < numProcs; p++ {
			if cand[p] == candBlocked {
				continue
			}
			if bestProc == -1 || cand[p] < bestStart {
				bestProc, bestStart = p, cand[p]
			}
		}
		if bestProc == -1 {
			buildCandHits.Add(candHits)
			buildCandMisses.Add(candMisses)
			buildWakeups.Add(wakeups)
			return nil, fmt.Errorf("sched: placement order deadlocks against precedence (%d tasks left)", remaining)
		}
		bestNode := pl.Order[bestProc][head[bestProc]]
		f := bestStart + g.Weight(bestNode)
		s.ByNode[bestNode] = Assignment{Node: bestNode, Proc: bestProc, Start: bestStart, Finish: f}
		done[bestNode] = true
		finish[bestNode] = f
		free[bestProc] = f
		head[bestProc]++
		remaining--
		candDirty[bestProc] = true
		for w := waiterHead[bestNode]; w != -1; w = waiterNext[w] {
			candDirty[w] = true
			wakeups++
		}
		waiterHead[bestNode] = -1
		if f > s.Makespan {
			s.Makespan = f
		}
	}
	buildCandHits.Add(candHits)
	buildCandMisses.Add(candMisses)
	buildWakeups.Add(wakeups)
	return s, nil
}

// oracleValidate is Validate as it was before the radix-sort rewrite: it
// checks the schedule against the paper's execution model:
//
//  1. every node is assigned exactly once, with Finish = Start + weight;
//  2. tasks on the same processor do not overlap;
//  3. every task starts no earlier than each predecessor's finish, plus
//     the edge weight when the two run on different processors.
func (s *Schedule) oracleValidate() error {
	g := s.Graph
	n := g.NumNodes()
	if len(s.ByNode) != n {
		return fmt.Errorf("sched: schedule covers %d nodes, graph has %d", len(s.ByNode), n)
	}
	for i, a := range s.ByNode {
		if int(a.Node) != i {
			return fmt.Errorf("sched: ByNode[%d] holds node %d", i, a.Node)
		}
		if a.Proc < 0 || a.Proc >= s.NumProcs {
			return fmt.Errorf("sched: node %d on processor %d outside [0,%d)", i, a.Proc, s.NumProcs)
		}
		if a.Start < 0 {
			return fmt.Errorf("sched: node %d starts at negative time %d", i, a.Start)
		}
		if a.Finish != a.Start+g.Weight(a.Node) {
			return fmt.Errorf("sched: node %d finish %d != start %d + weight %d",
				i, a.Finish, a.Start, g.Weight(a.Node))
		}
		if a.Finish > s.Makespan {
			return fmt.Errorf("sched: node %d finishes at %d beyond makespan %d", i, a.Finish, s.Makespan)
		}
	}
	// No overlap per processor: one pass over the assignments sorted
	// by (processor, start) rather than a per-processor scan of the
	// whole node list (Validate runs once per schedule on the testbed
	// hot path).
	byProc := make([]Assignment, n)
	copy(byProc, s.ByNode)
	slices.SortFunc(byProc, func(a, b Assignment) int {
		if a.Proc != b.Proc {
			return a.Proc - b.Proc
		}
		return cmp.Compare(a.Start, b.Start)
	})
	for i := 1; i < len(byProc); i++ {
		prev, cur := byProc[i-1], byProc[i]
		if cur.Proc == prev.Proc && cur.Start < prev.Finish {
			return fmt.Errorf("sched: processor %d overlap: node %d [%d,%d) vs node %d [%d,%d)",
				cur.Proc, prev.Node, prev.Start, prev.Finish,
				cur.Node, cur.Start, cur.Finish)
		}
	}
	// Precedence + communication.
	for v := 0; v < n; v++ {
		av := s.ByNode[v]
		for _, e := range g.Preds(dag.NodeID(v)) {
			ap := s.ByNode[e.To]
			ready := ap.Finish
			if ap.Proc != av.Proc {
				ready += e.Weight
			}
			if av.Start < ready {
				return fmt.Errorf("sched: node %d starts at %d before data from %d ready at %d",
					v, av.Start, e.To, ready)
			}
		}
	}
	return nil
}

// ringDelay is a non-uniform delay model: cost grows with processor
// distance, so processor indices matter to the timing.
func ringDelay(from, to int, w int64) int64 {
	d := from - to
	if d < 0 {
		d = -d
	}
	return w * int64(1+d)
}

// oraclePlacement draws a placement of g over procs processors (some
// possibly empty). Orders follow a random topological order unless
// shuffle, in which case the per-processor orders are random
// permutations and usually deadlock against precedence.
func oraclePlacement(rng *rand.Rand, g *dag.Graph, procs int, shuffle bool) *Placement {
	order := randomTopoOrder(rng, g)
	if shuffle {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	pl := NewPlacement(g.NumNodes())
	for _, v := range order {
		pl.Assign(v, rng.Intn(procs))
	}
	for len(pl.Order) < procs {
		pl.Order = append(pl.Order, nil)
	}
	return pl
}

// randomTopoOrder is Kahn's algorithm taking a random ready node each
// step, so per-processor orders do not simply follow node IDs.
func randomTopoOrder(rng *rand.Rand, g *dag.Graph) []dag.NodeID {
	n := g.NumNodes()
	indeg := make([]int, n)
	var ready, order []dag.NodeID
	for v := 0; v < n; v++ {
		if indeg[v] = g.InDegree(dag.NodeID(v)); indeg[v] == 0 {
			ready = append(ready, dag.NodeID(v))
		}
	}
	for len(ready) > 0 {
		i := rng.Intn(len(ready))
		v := ready[i]
		ready[i] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, v)
		for _, a := range g.Succs(v) {
			if indeg[a.To]--; indeg[a.To] == 0 {
				ready = append(ready, a.To)
			}
		}
	}
	return order
}

// singletonPlacement puts every node on its own processor, the shape
// clustering heuristics produce on sparse graphs.
func singletonPlacement(g *dag.Graph) *Placement {
	pl := NewPlacement(g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		pl.Assign(dag.NodeID(v), v)
	}
	return pl
}

func sameSchedule(t *testing.T, what string, got, want *Schedule, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: err = %v, oracle err = %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: err = %q, oracle err = %q", what, gotErr, wantErr)
		}
		return
	}
	if got.NumProcs != want.NumProcs || got.Makespan != want.Makespan {
		t.Fatalf("%s: NumProcs/Makespan = %d/%d, oracle %d/%d",
			what, got.NumProcs, got.Makespan, want.NumProcs, want.Makespan)
	}
	if !slices.Equal(got.ByNode, want.ByNode) {
		t.Fatalf("%s: ByNode differs from the oracle\n got  %v\n want %v", what, got.ByNode, want.ByNode)
	}
}

// TestBuildMatchesOracle requires the worklist builder to produce
// byte-identical schedules (and identical errors) to the scan-based
// oracle, under the uniform and a non-uniform delay model, on narrow,
// wide (40+ processors per 80 nodes), singleton and deadlocking
// placements.
func TestBuildMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1994))
	for iter := 0; iter < 400; iter++ {
		n := 1 + rng.Intn(80)
		g := randomDAG(rng, n, []float64{0, 0.05, 0.2, 0.5}[iter%4])
		var pl *Placement
		switch iter % 5 {
		case 0:
			pl = oraclePlacement(rng, g, 1+rng.Intn(4), false)
		case 1:
			pl = oraclePlacement(rng, g, 8, false)
		case 2:
			pl = oraclePlacement(rng, g, max(40, n/2+rng.Intn(n+1)), false)
		case 3:
			pl = singletonPlacement(g)
		case 4:
			pl = oraclePlacement(rng, g, 1+rng.Intn(n), true)
		}
		for _, delay := range []DelayFunc{UniformDelay, ringDelay} {
			got, gotErr := buildWith(g, pl, delay)
			want, wantErr := oracleBuildWith(g, pl, delay)
			sameSchedule(t, fmt.Sprintf("iter %d (n=%d, procs=%d)", iter, n, len(pl.Order)), got, want, gotErr, wantErr)
			if gotErr != nil {
				continue
			}
			if err := got.ValidateWith(delay); err != nil {
				t.Fatalf("iter %d: built schedule fails ValidateWith: %v", iter, err)
			}
		}
	}
}

// TestValidateMatchesOracle requires the counting-sort Validate to
// reach the oracle's verdict on built schedules and on copies with
// one assignment perturbed (moved in time or to another processor,
// possibly one far beyond the graph size).
func TestValidateMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 600; iter++ {
		n := 1 + rng.Intn(80)
		g := randomDAG(rng, n, []float64{0, 0.1, 0.3}[iter%3])
		procs := []int{1, 3, 8, max(40, n)}[iter%4]
		s, err := Build(g, oraclePlacement(rng, g, procs, false))
		if err != nil {
			t.Fatal(err)
		}
		if err, oerr := s.Validate(), s.oracleValidate(); err != nil || oerr != nil {
			t.Fatalf("iter %d: built schedule: Validate %v, oracle %v", iter, err, oerr)
		}
		bad := *s
		bad.ByNode = slices.Clone(s.ByNode)
		v := rng.Intn(n)
		a := &bad.ByNode[v]
		switch rng.Intn(3) {
		case 0:
			d := int64(rng.Intn(41) - 20)
			a.Start += d
			a.Finish += d
		case 1:
			a.Proc = rng.Intn(bad.NumProcs)
		case 2:
			// Far more processors than nodes; past 2^50 or so the
			// (processor, start) key no longer fits one int64.
			bad.NumProcs = 1 << (40 + rng.Intn(23))
			a.Proc = rng.Intn(bad.NumProcs)
		}
		// Keep the makespan check satisfied so the overlap and
		// precedence checks are what decide.
		bad.Makespan = max(bad.Makespan, a.Finish)
		err, oerr := bad.Validate(), bad.oracleValidate()
		if (err == nil) != (oerr == nil) {
			t.Fatalf("iter %d: perturbed schedule: Validate %v, oracle %v", iter, err, oerr)
		}
	}
}
