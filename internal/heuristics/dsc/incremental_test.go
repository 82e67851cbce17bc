package dsc

import (
	"fmt"
	"math/rand"
	"testing"

	"schedcomp/internal/corpus"
	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics/schedtest"
	"schedcomp/internal/paperex"
	"schedcomp/internal/sched"
)

// canon serializes a placement so byte equality means identical
// scheduling decisions (processor assignment and per-cluster order).
func canon(pl *sched.Placement) string {
	return fmt.Sprintf("proc=%v order=%v", pl.Proc, pl.Order)
}

// requireSamePlacement schedules g with both the incremental DSC and
// the full-recompute reference and fails on any divergence.
func requireSamePlacement(t *testing.T, g *dag.Graph, label string) {
	t.Helper()
	fast, err := New().Schedule(g)
	if err != nil {
		t.Fatalf("%s: incremental: %v", label, err)
	}
	slow, err := scheduleFullRecompute(g)
	if err != nil {
		t.Fatalf("%s: full recompute: %v", label, err)
	}
	if a, b := canon(fast), canon(slow); a != b {
		t.Fatalf("%s: incremental and full-recompute DSC diverge\n incremental: %s\n reference:   %s", label, a, b)
	}
}

// TestIncrementalMatchesFullRecompute is the golden equivalence suite:
// the incremental cone repair must reproduce the original whole-graph
// level refresh byte-for-byte across the paper worked example, the
// determinism corpus, dense random DAGs, and a reduced generated
// corpus covering all 60 classes.
func TestIncrementalMatchesFullRecompute(t *testing.T) {
	requireSamePlacement(t, paperex.Graph(), "paper worked example")

	for gi, g := range schedtest.DeterminismCorpus(t, 20260805) {
		requireSamePlacement(t, g, fmt.Sprintf("determinism corpus graph %d (%s)", gi, g.Name()))
	}

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 40; i++ {
		n := 5 + rng.Intn(60)
		g := schedtest.RandomDAG(rng, n, 0.15+0.5*rng.Float64())
		requireSamePlacement(t, g, fmt.Sprintf("random DAG %d (n=%d)", i, n))
	}

	spec := corpus.Spec{Seed: 7, GraphsPerSet: 1, MinNodes: 24, MaxNodes: 56}
	c, err := corpus.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range c.Sets {
		for _, g := range set.Graphs {
			requireSamePlacement(t, g, "corpus "+set.Class.String()+" "+g.Name())
		}
	}
}

// TestIncrementalLevelInvariant hammers the internal invariant
// directly: after every placement the incrementally maintained levels
// must equal a from-scratch recomputation over the current cluster
// assignment.
func TestIncrementalLevelInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		g := schedtest.RandomDAG(rng, 4+rng.Intn(40), 0.3)
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		pos, err := g.TopoPositions()
		if err != nil {
			t.Fatal(err)
		}
		bl, err := g.BLevels()
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumNodes()
		s := &state{
			g:       g,
			csr:     g.CSR(),
			cluster: make([]int, n),
			st:      make([]int64, n),
			nsched:  make([]int, n),
			level:   make([]int64, n),
			mark:    make([]int32, n),
			pos:     pos,
			inHeap:  make([]bool, n),
		}
		for i := range s.cluster {
			s.cluster[i] = -1
		}
		copy(s.level, bl)

		ref := &state{g: g, csr: g.CSR(), cluster: s.cluster, level: make([]int64, n)}
		for scheduled := 0; scheduled < n; scheduled++ {
			nx := s.topFree()
			target := -1
			// Exercise merges aggressively: always merge when CT1
			// alone allows it, regardless of the CT2 policy, so the
			// cone repair runs on many more edge-zeroing rounds than
			// the real algorithm would trigger.
			if c, ok := s.bestParentCluster(nx); ok && s.startOn(c, nx) <= s.startBound(nx) {
				target = c
			}
			s.place(nx, target)
			ref.recomputeLevels(order)
			for v := 0; v < n; v++ {
				if s.level[v] != ref.level[v] {
					t.Fatalf("trial %d: after placing %d levels diverge at node %d: incremental %d, recompute %d",
						trial, nx, v, s.level[v], ref.level[v])
				}
			}
		}
	}
}
