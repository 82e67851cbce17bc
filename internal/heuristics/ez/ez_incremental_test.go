package ez

import (
	"math/rand"
	"testing"

	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics/schedtest"
	"schedcomp/internal/paperex"
	"schedcomp/internal/sched"
)

// loggedScheduler is EZ or its full-rescan oracle, with the estimate
// log attached.
type loggedScheduler interface {
	Schedule(g *dag.Graph) (*sched.Placement, error)
	logTo(log *[]int64)
}

func (e *EZ) logTo(log *[]int64) { e.estLog = log }

// runLogged schedules g with e and returns the estimate log (initial
// estimate followed by every examined edge's trial estimate) and the
// placement.
func runLogged(t *testing.T, e loggedScheduler, g *dag.Graph) ([]int64, *sched.Placement) {
	t.Helper()
	var log []int64
	e.logTo(&log)
	pl, err := e.Schedule(g)
	if err != nil {
		t.Fatalf("%T schedule: %v", e, err)
	}
	return log, pl
}

func samePlacement(a, b *sched.Placement) bool {
	if len(a.Proc) != len(b.Proc) || len(a.Order) != len(b.Order) {
		return false
	}
	for i := range a.Proc {
		if a.Proc[i] != b.Proc[i] {
			return false
		}
	}
	for p := range a.Order {
		if len(a.Order[p]) != len(b.Order[p]) {
			return false
		}
		for i := range a.Order[p] {
			if a.Order[p][i] != b.Order[p][i] {
				return false
			}
		}
	}
	return true
}

// TestIncrementalMatchesFullRescan is the estimator oracle: on random
// graphs the incremental retimer must report the identical parallel
// time for the identical trial sequence — every estimate, not just the
// final one, since a single divergent estimate flips a merge decision
// and changes the schedule — and land on the identical placement.
func TestIncrementalMatchesFullRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(1994))
	for trial := 0; trial < 120; trial++ {
		n, density := 1+rng.Intn(40), 0.05+0.45*rng.Float64()
		if trial%8 == 0 {
			// Sparse graphs past 64 nodes spread the rank frontier
			// over several bitset words.
			n, density = 65+rng.Intn(130), 0.02+0.06*rng.Float64()
		}
		g := schedtest.RandomDAG(rng, n, density)
		fastLog, fastPl := runLogged(t, New(), g)
		slowLog, slowPl := runLogged(t, newFullRescan(), g)
		if len(fastLog) != len(slowLog) {
			t.Fatalf("trial %d (n=%d): %d incremental estimates, %d full-rescan",
				trial, n, len(fastLog), len(slowLog))
		}
		for i := range fastLog {
			if fastLog[i] != slowLog[i] {
				t.Fatalf("trial %d (n=%d): estimate %d of %d diverges: incremental %d, full-rescan %d",
					trial, n, i, len(fastLog), fastLog[i], slowLog[i])
			}
		}
		if !samePlacement(fastPl, slowPl) {
			t.Fatalf("trial %d (n=%d): placements diverge", trial, n)
		}
	}
}

// TestIncrementalMatchesFullRescanZeroComm forces zero-weight edges
// (free communication everywhere): every merge trial then estimates
// the same time and the tie-breaking path (merge kept on equality) is
// exercised on every edge.
func TestIncrementalMatchesFullRescanZeroComm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(25)
		g := dag.New("zero-comm")
		var nodes []dag.NodeID
		for i := 0; i < n; i++ {
			nodes = append(nodes, g.AddNode(int64(1+rng.Intn(9))))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					g.MustAddEdge(nodes[i], nodes[j], 0)
				}
			}
		}
		fastLog, fastPl := runLogged(t, New(), g)
		slowLog, slowPl := runLogged(t, newFullRescan(), g)
		for i := range fastLog {
			if fastLog[i] != slowLog[i] {
				t.Fatalf("trial %d: estimate %d diverges: incremental %d, full-rescan %d",
					trial, i, fastLog[i], slowLog[i])
			}
		}
		if !samePlacement(fastPl, slowPl) {
			t.Fatalf("trial %d: placements diverge", trial)
		}
	}
}

// TestFullRescanPaperExample pins the retained oracle itself to the
// hand-traced golden value, so the oracle cannot silently drift.
func TestFullRescanPaperExample(t *testing.T) {
	sc := schedtest.BuildAndValidate(t, newFullRescan(), paperex.Graph())
	if sc.Makespan != 135 {
		t.Errorf("makespan = %d, want 135", sc.Makespan)
	}
}
