// Package mcp implements the Modified Critical Path heuristic of Wu &
// Gajski, as described in Appendix A.2 of the paper.
//
// MCP computes the ALAP (as-late-as-possible) start time T_L of every
// node from the communication-weighted critical path, associates with
// each node the list of T_L values of itself and all its descendants,
// orders the nodes by comparing those lists, and then schedules them
// one by one onto the processor that allows the earliest start time,
// using insertion into idle gaps; a new processor is opened when it
// strictly beats every existing one.
//
// Ordering note: the paper's Figure 9 says to sort both the per-node
// lists and the global list "in decreasing order", which would schedule
// the least critical node first and contradicts the algorithm's own
// worked example. We follow Wu & Gajski (and the standard descriptions
// of MCP): per-node lists ascending, global order ascending
// lexicographic, so the node with the smallest ALAP time — the most
// critical one — is scheduled first. Because a node's own T_L is
// strictly smaller than every descendant's, this order is topologically
// consistent.
package mcp

import (
	"context"
	"slices"
	"sort"

	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/sched"
)

func init() {
	heuristics.Register("MCP", func() heuristics.Scheduler { return New() })
}

// MCP is the scheduler. Insertion controls whether tasks may be placed
// into idle gaps between already scheduled tasks (the classic MCP
// behaviour) or only appended after the last task of a processor; the
// ablation benches compare the two.
type MCP struct {
	Insertion bool
}

// New returns an MCP scheduler with gap insertion enabled.
func New() *MCP { return &MCP{Insertion: true} }

// Name implements heuristics.Scheduler.
func (m *MCP) Name() string { return "MCP" }

// Schedule implements heuristics.Scheduler.
func (m *MCP) Schedule(g *dag.Graph) (*sched.Placement, error) {
	return m.ScheduleContext(context.Background(), g)
}

// ScheduleContext implements heuristics.ContextScheduler: Schedule
// with a cancellation poll once per committed task.
func (m *MCP) ScheduleContext(ctx context.Context, g *dag.Graph) (*sched.Placement, error) {
	n := g.NumNodes()
	if n == 0 {
		return sched.NewPlacement(0), nil
	}
	order, err := m.order(g)
	if err != nil {
		return nil, err
	}

	csr := g.CSR()
	proc := make([]int, n) // node -> processor
	finish := make([]int64, n)
	var ts sched.Timelines
	for _, v := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w := g.Weight(v)
		bestP, bestStart := -1, int64(0)
		for p := range ts {
			st := sched.Arrival(csr, proc, finish, v, p) //lint:boundedidx the CSR window of v lies inside the arc arrays
			if m.Insertion {
				st = ts.EarliestGap(p, st, w)
			} else {
				st = max(st, ts.End(p))
			}
			if bestP == -1 || st < bestStart {
				bestP, bestStart = p, st
			}
		}
		// A new processor, where every incoming edge pays
		// communication, is opened only when it strictly beats every
		// existing one.
		if st := sched.Arrival(csr, proc, finish, v, len(ts)); bestP == -1 || st < bestStart { //lint:boundedidx the CSR window of v lies inside the arc arrays
			bestP, bestStart = len(ts), st
		}
		proc[v] = bestP
		finish[v] = bestStart + w
		ts.Insert(bestP, v, bestStart, finish[v])
	}
	return ts.Placement(n), nil
}

// order returns the MCP scheduling order: nodes sorted by ascending
// lexicographic comparison of their ALAP-time lists (own T_L plus all
// descendants', each list ascending). Ties break to the smaller node
// ID so the result is deterministic.
func (m *MCP) order(g *dag.Graph) ([]dag.NodeID, error) {
	alap, err := g.ALAPTimes()
	if err != nil {
		return nil, err
	}
	desc, err := g.Descendants()
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	lists := make([][]int64, n)
	// One collect closure serves every node; each list is preallocated
	// from the descendant count and sorted without a comparator closure.
	var l []int64
	collect := func(j int) { l = append(l, alap[j]) }
	for i := 0; i < n; i++ {
		l = make([]int64, 0, desc[i].Count()+1)
		l = append(l, alap[i])
		desc[i].ForEach(collect)
		slices.Sort(l)
		lists[i] = l
	}
	order := make([]dag.NodeID, n)
	for i := range order {
		order[i] = dag.NodeID(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		la, lb := lists[order[a]], lists[order[b]]
		for i := 0; i < len(la) && i < len(lb); i++ {
			if la[i] != lb[i] {
				return la[i] < lb[i]
			}
		}
		if len(la) != len(lb) {
			return len(la) < len(lb)
		}
		return order[a] < order[b]
	})
	return order, nil
}
