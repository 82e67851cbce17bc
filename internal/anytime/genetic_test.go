package anytime

import (
	"math/rand"
	"testing"

	"schedcomp/internal/dag"
	"schedcomp/internal/sched"
)

// randomTopoDAG builds a random DAG whose node IDs are already a
// topological order (edges only go from smaller to larger IDs).
func randomTopoDAG(rng *rand.Rand, n int, density int) *dag.Graph {
	g := dag.New("ga-rand")
	for i := 0; i < n; i++ {
		g.AddNode(int64(1 + rng.Intn(50)))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(100) < density {
				g.MustAddEdge(dag.NodeID(i), dag.NodeID(j), int64(rng.Intn(40)))
			}
		}
	}
	return g
}

// requireTopoConsistent fails unless order is a permutation of g's
// nodes with every edge pointing forward.
func requireTopoConsistent(t *testing.T, g *dag.Graph, order []dag.NodeID) {
	t.Helper()
	n := g.NumNodes()
	if len(order) != n {
		t.Fatalf("order has %d entries, graph has %d nodes", len(order), n)
	}
	pos := make([]int, n)
	seen := make([]bool, n)
	for i, v := range order {
		if v < 0 || int(v) >= n || seen[v] {
			t.Fatalf("order is not a permutation: %v", order)
		}
		seen[v] = true
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("edge %d->%d violated: positions %d >= %d in %v",
				e.From, e.To, pos[e.From], pos[e.To], order)
		}
	}
}

// randomChromosome derives a feasible individual: identity order
// (topological by construction) jittered by feasible-window moves,
// with random placements.
func randomChromosome(g *dag.Graph, rng *rand.Rand, pos []int) chromosome {
	n := g.NumNodes()
	c := chromosome{order: make([]dag.NodeID, n), proc: make([]int, n)}
	for i := 0; i < n; i++ {
		c.order[i] = dag.NodeID(i)
		c.proc[i] = rng.Intn(1 + n/2)
	}
	for k := 0; k < 3*n; k++ {
		mutateOrder(g, c, rng, pos)
	}
	return c
}

// Offspring of crossover and both mutations must always be
// topologically consistent — the invariant the whole GA rests on.
func TestOffspringAlwaysTopoConsistent(t *testing.T) {
	var dec decoder // shared across graphs and trials, as in a run
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(24)
		g := randomTopoDAG(rng, n, 35)
		pos := make([]int, n)
		a := randomChromosome(g, rng, pos)
		b := randomChromosome(g, rng, pos)
		requireTopoConsistent(t, g, a.order)
		requireTopoConsistent(t, g, b.order)
		for trial := 0; trial < 40; trial++ {
			child := crossover(a.clone(), a, b, 1+rng.Intn(n-1), make([]bool, n))
			requireTopoConsistent(t, g, child.order)
			mutateOrder(g, child, rng, pos)
			requireTopoConsistent(t, g, child.order)
			mutateProc(child, rng, n)
			// A mutated child must still decode to a valid schedule.
			sc, err := dec.decode(g, child)
			if err != nil {
				t.Fatalf("seed %d trial %d: %v", seed, trial, err)
			}
			if err := sc.Validate(); err != nil {
				t.Fatalf("seed %d trial %d: %v", seed, trial, err)
			}
			// Feed offspring back in as parents to compound drift.
			a, b = b, child
		}
	}
}

// fromSchedule must produce a topologically consistent priority list
// even when many tasks share identical start times (zero-cost edges,
// siblings starting together on different processors), where sort
// order alone would be ambiguous.
func TestFromScheduleStartTimeTies(t *testing.T) {
	g := dag.New("ties")
	a := g.AddNode(1)
	b := g.AddNode(1)
	c := g.AddNode(5)
	d := g.AddNode(1)
	g.MustAddEdge(a, b, 0)
	g.MustAddEdge(b, c, 0)
	g.MustAddEdge(b, d, 0)
	// c and d both become ready the instant b finishes; on separate
	// processors with zero-cost edges their starts tie exactly.
	pl := sched.NewPlacement(4)
	pl.Assign(a, 0)
	pl.Assign(b, 0)
	pl.Assign(c, 0)
	pl.Assign(d, 1)
	sc, err := sched.Build(g, pl)
	if err != nil {
		t.Fatal(err)
	}
	chr := fromSchedule(sc)
	requireTopoConsistent(t, g, chr.order)
	if chr.mk != sc.Makespan {
		t.Errorf("chromosome makespan %d != schedule %d", chr.mk, sc.Makespan)
	}
	// Round trip: decoding must reproduce the makespan.
	sc2, err := new(decoder).decode(g, chr)
	if err != nil {
		t.Fatal(err)
	}
	if sc2.Makespan != sc.Makespan {
		t.Errorf("round-trip makespan %d != %d", sc2.Makespan, sc.Makespan)
	}
}

// fromSchedule round-trips arbitrary schedules: the decoded chromosome
// reproduces the source placement's makespan exactly, which is what
// makes the heuristic portfolio a true floor for the GA.
func TestFromScheduleRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(400 + seed))
		n := 1 + rng.Intn(20)
		g := randomTopoDAG(rng, n, 30)
		pl := sched.NewPlacement(n)
		procs := 1 + rng.Intn(4)
		for v := 0; v < n; v++ {
			pl.Assign(dag.NodeID(v), rng.Intn(procs))
		}
		sc, err := sched.Build(g, pl)
		if err != nil {
			t.Fatal(err)
		}
		chr := fromSchedule(sc)
		requireTopoConsistent(t, g, chr.order)
		sc2, err := new(decoder).decode(g, chr)
		if err != nil {
			t.Fatal(err)
		}
		if sc2.Makespan != sc.Makespan {
			t.Errorf("seed %d: round-trip makespan %d != %d", seed, sc2.Makespan, sc.Makespan)
		}
	}
}

func TestStructSeedSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomTopoDAG(rng, 12, 30)
	h := g.Clone()
	if structSeed(g) != structSeed(h) {
		t.Fatal("clone changed the structure seed")
	}
	h.AddNode(7)
	if structSeed(g) == structSeed(h) {
		t.Error("adding a node did not change the structure seed")
	}
}
