package hu

// Test oracle: the scan-based processor pick, kept verbatim so the
// production pick (fresh processor or idle-time heap) can be required
// to place every task identically.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics/schedtest"
	"schedcomp/internal/pq"
	"schedcomp/internal/sched"
)

// oracleSchedule is ScheduleContext, minus cancellation, as it was
// before the EarliestAvailable pick stopped scanning: every pick scans
// all used processors plus one fresh one.
func (h *HU) oracleSchedule(g *dag.Graph) (*sched.Placement, error) {
	n := g.NumNodes()
	pl := sched.NewPlacement(n)
	if n == 0 {
		return pl, nil
	}
	level, err := g.BLevels()
	if err != nil {
		return nil, err
	}

	higher := func(a, b dag.NodeID) bool {
		if level[a] != level[b] {
			return level[a] > level[b]
		}
		return a < b
	}
	free := pq.New(higher)
	for _, v := range g.Sources() {
		free.Push(v)
	}

	proc := make([]int, n)
	finish := make([]int64, n)
	scheduledPreds := make([]int, n)
	var procFree []int64

	arrive := func(v dag.NodeID, p int) int64 {
		var t int64
		for _, a := range g.Preds(v) {
			at := finish[a.To]
			if proc[a.To] != p {
				at += a.Weight
			}
			if at > t {
				t = at
			}
		}
		return t
	}

	place := func(v dag.NodeID, p int) {
		if p == len(procFree) {
			procFree = append(procFree, 0)
		}
		start := arrive(v, p)
		if procFree[p] > start {
			start = procFree[p]
		}
		proc[v] = p
		finish[v] = start + g.Weight(v)
		procFree[p] = finish[v]
		pl.Assign(v, p)
		for _, a := range g.Succs(v) {
			scheduledPreds[a.To]++
			if scheduledPreds[a.To] == g.InDegree(a.To) {
				free.Push(a.To)
			}
		}
	}

	pick := func(v dag.NodeID) int {
		candidates := len(procFree)
		if h.MaxProcs == 0 || candidates < h.MaxProcs {
			candidates++ // one fresh processor
		}
		bestP := -1
		var bestKey int64
		for p := 0; p < candidates; p++ {
			var key int64
			var idle int64
			if p < len(procFree) {
				idle = procFree[p]
			}
			switch h.Policy {
			case EarliestAvailable:
				key = idle
			case EarliestStart:
				key = arrive(v, p)
				if idle > key {
					key = idle
				}
			}
			if bestP == -1 || key < bestKey {
				bestP, bestKey = p, key
			}
		}
		return bestP
	}

	// The first task goes to the first processor.
	first := free.Pop()
	place(first, 0)
	for !free.Empty() {
		v := free.Pop()
		place(v, pick(v))
	}
	return pl, nil
}

// TestPickMatchesOracle requires identical placements from the
// production HU and the scan-based oracle, for both policies on
// bounded and unbounded machines.
func TestPickMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1994))
	for iter := 0; iter < 200; iter++ {
		g := schedtest.RandomDAG(rng, 1+rng.Intn(60), []float64{0, 0.05, 0.2}[iter%3])
		for _, policy := range []Policy{EarliestAvailable, EarliestStart} {
			for _, maxProcs := range []int{0, 1, 3, 8} {
				h := &HU{Policy: policy, MaxProcs: maxProcs}
				what := fmt.Sprintf("iter %d policy %d maxProcs %d", iter, policy, maxProcs)
				got, err := h.Schedule(g)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				want, err := h.oracleSchedule(g)
				if err != nil {
					t.Fatalf("%s: oracle: %v", what, err)
				}
				if !slices.Equal(got.Proc, want.Proc) || !slices.EqualFunc(got.Order, want.Order, slices.Equal) {
					t.Fatalf("%s: placement differs from the oracle", what)
				}
			}
		}
	}
}
