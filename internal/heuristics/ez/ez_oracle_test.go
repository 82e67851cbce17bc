package ez

import (
	"context"
	"sort"

	"schedcomp/internal/dag"
	"schedcomp/internal/sched"
)

// fullRescan is the pre-incremental EZ: every trial merge rebuilds a
// placement and replays the full timing model through sched.Build. It
// is the oracle the incremental estimator is tested against and
// behaves identically to EZ.
type fullRescan struct {
	// estLog has the meaning of EZ.estLog.
	estLog *[]int64
}

func newFullRescan() *fullRescan { return &fullRescan{} }

func (e *fullRescan) Name() string { return "EZ" }

func (e *fullRescan) Schedule(g *dag.Graph) (*sched.Placement, error) {
	return e.scheduleFullRescan(context.Background(), g)
}

func (e *fullRescan) logTo(log *[]int64) { e.estLog = log }

func (e *fullRescan) scheduleFullRescan(ctx context.Context, g *dag.Graph) (*sched.Placement, error) {
	n := g.NumNodes()
	if n == 0 {
		return sched.NewPlacement(0), nil
	}
	level, err := g.BLevels()
	if err != nil {
		return nil, err
	}

	clusters := make([]int, n)
	for i := range clusters {
		clusters[i] = i
	}

	current, err := estimate(g, level, clusters)
	if err != nil {
		return nil, err
	}
	if e.estLog != nil {
		*e.estLog = append(*e.estLog, current)
	}
	for _, edge := range sortedEdges(g) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ra, rb := find(clusters, int(edge.From)), find(clusters, int(edge.To))
		if ra == rb {
			continue // already zeroed transitively
		}
		// Trial merge on a copy: undoing a union under path
		// compression is error-prone, cloning is cheap at these sizes.
		trial := append([]int(nil), clusters...)
		trial[ra] = rb
		merged, err := estimate(g, level, trial)
		if err != nil {
			return nil, err
		}
		if e.estLog != nil {
			*e.estLog = append(*e.estLog, merged)
		}
		if merged <= current {
			current = merged
			clusters = trial
		}
	}
	return fullPlacement(g, level, clusters), nil
}

// fullPlacement lays each cluster on its own processor, ordered by
// descending level (ties to the smaller ID).
func fullPlacement(g *dag.Graph, level []int64, clusters []int) *sched.Placement {
	n := g.NumNodes()
	byRoot := map[int][]dag.NodeID{}
	var roots []int
	for v := 0; v < n; v++ {
		r := find(clusters, v)
		if len(byRoot[r]) == 0 {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], dag.NodeID(v))
	}
	sort.Ints(roots)
	pl := sched.NewPlacement(n)
	for pi, r := range roots {
		members := byRoot[r]
		sort.Slice(members, func(i, j int) bool {
			if level[members[i]] != level[members[j]] {
				return level[members[i]] > level[members[j]]
			}
			return members[i] < members[j]
		})
		for _, v := range members {
			pl.Assign(v, pi)
		}
	}
	return pl
}

// estimate returns the parallel time of the clustering (full rescan).
func estimate(g *dag.Graph, level []int64, clusters []int) (int64, error) {
	s, err := sched.Build(g, fullPlacement(g, level, clusters))
	if err != nil {
		return 0, err
	}
	if err := s.Validate(); err != nil {
		return 0, err
	}
	return s.Makespan, nil
}
