package dsc

import (
	"schedcomp/internal/arena"
	"schedcomp/internal/dag"
	"schedcomp/internal/sched"
)

// scheduleFullRecompute is the pre-incremental DSC: it refreshes every
// level over the whole graph at the top of each round, the
// O(V·(V+E)) path the incremental cone repair replaced. It is the
// oracle the equivalence tests compare DSC against. place still runs
// its cone repair, but every level is recomputed from scratch before
// the next decision reads it.
func scheduleFullRecompute(g *dag.Graph) (*sched.Placement, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	scratch := arena.Get()
	defer scratch.Release()
	s, err := initState(g, scratch)
	if err != nil {
		return nil, err
	}
	for scheduled := 0; scheduled < g.NumNodes(); scheduled++ {
		s.recomputeLevels(order)
		s.step()
	}
	return s.placement(), nil
}

// recomputeLevels refreshes level(n) = longest remaining path including
// communication, where edges internal to a cluster are already zeroed.
// It is the whole-graph reference for the incremental path, which
// repairs only the affected ancestor cone (refreshCone).
func (s *state) recomputeLevels(order []dag.NodeID) {
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		s.level[v] = s.levelOf(v)
	}
}
