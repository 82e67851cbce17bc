// Package hu implements Lewis & El-Rewini's communication-extended
// version of Hu's classical list scheduling algorithm (Appendix A.4 of
// the paper).
//
// Each task's priority is its level (longest path to an exit node,
// including communication weights — the Lewis/El-Rewini modification).
// Tasks with no unscheduled predecessors sit in a free list ordered by
// priority; the first task goes to the first processor, and every
// subsequent task goes to the processor that is *available* earliest.
//
// Interpretation note (see DESIGN.md): the paper's Figure 13 is
// superficially close to MH, yet HU is by far the worst performer in
// every table of the paper — exactly the behaviour of the classical,
// communication-oblivious Hu placement rule, which ignores where the
// predecessors live when picking a processor. We therefore implement
// the placement choice as "earliest available processor" (on an
// unbounded machine this spreads tasks maximally), while the final
// timing — like every other heuristic — pays full communication costs.
// The comm-aware alternative and a bounded machine are available as
// knobs for the ablation benches.
package hu

import (
	"context"

	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/pq"
	"schedcomp/internal/sched"
)

func init() {
	heuristics.Register("HU", func() heuristics.Scheduler { return New() })
}

// Policy selects how HU picks a processor for the next task.
type Policy int

const (
	// EarliestAvailable picks the processor that becomes idle first,
	// ignoring communication (the classical Hu rule; default).
	EarliestAvailable Policy = iota
	// EarliestStart picks the processor on which the task can start
	// first, accounting for communication from predecessors (the
	// comm-aware ablation; this makes HU behave like a non-event-driven
	// MH).
	EarliestStart
)

// HU is the scheduler. The zero value uses the EarliestAvailable policy
// on an unbounded machine, matching the paper's results.
type HU struct {
	Policy Policy
	// MaxProcs bounds the machine size; 0 means unbounded.
	MaxProcs int
}

// New returns an HU scheduler in the paper's configuration.
func New() *HU { return &HU{} }

// Name implements heuristics.Scheduler.
func (h *HU) Name() string { return "HU" }

// Schedule implements heuristics.Scheduler.
func (h *HU) Schedule(g *dag.Graph) (*sched.Placement, error) {
	return h.ScheduleContext(context.Background(), g)
}

// ScheduleContext implements heuristics.ContextScheduler: Schedule
// with a cancellation poll once per committed task.
func (h *HU) ScheduleContext(ctx context.Context, g *dag.Graph) (*sched.Placement, error) {
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

	csr := g.CSR()
	proc := make([]int, n)
	finish := make([]int64, n)
	scheduledPreds := make([]int, n)
	// procFree[p] is processor p's idle time for p < used; a task
	// never opens more than one processor, so n slots suffice.
	procFree := make([]int64, n)
	used := 0
	// On a bounded machine under EarliestAvailable, the used
	// processors sit in a heap keyed by (idle time, index). A key moves
	// only when its processor receives a task, so once the machine is
	// full pick pops the winner and place pushes it back: O(log P) per
	// task instead of a scan.
	bounded := h.Policy == EarliestAvailable && h.MaxProcs > 0
	byIdle := pq.New(func(a, b int) bool {
		if procFree[a] != procFree[b] {
			return procFree[a] < procFree[b]
		}
		return a < b
	})

	place := func(v dag.NodeID, p int) {
		if p == used {
			used++
		}
		start := sched.Arrival(csr, proc, finish, v, p) //lint:boundedidx the CSR window of v lies inside the arc arrays
		if procFree[p] > start {
			start = procFree[p]
		}
		proc[v] = p
		finish[v] = start + g.Weight(v)
		procFree[p] = finish[v]
		if bounded {
			byIdle.Push(p)
		}
		pl.Assign(v, p)
		for _, a := range g.Succs(v) {
			scheduledPreds[a.To]++
			if scheduledPreds[a.To] == g.InDegree(a.To) {
				free.Push(a.To)
			}
		}
	}

	pick := func(v dag.NodeID) int {
		fresh := h.MaxProcs == 0 || used < h.MaxProcs
		if h.Policy == EarliestAvailable {
			// Node weights are positive, so every used processor is
			// busy until a positive time and a fresh one, idle from 0,
			// wins while the machine has room.
			if fresh {
				return used
			}
			return byIdle.Pop()
		}
		candidates := used
		if fresh {
			candidates++
		}
		bestP := -1
		var bestKey int64
		for p := 0; p < candidates; p++ {
			key := sched.Arrival(csr, proc, finish, v, p) //lint:boundedidx the CSR window of v lies inside the arc arrays
			if procFree[p] > key {
				key = procFree[p]
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
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		v := free.Pop()
		place(v, pick(v)) //lint:boundedidx inlined sched.Arrival: the CSR window of v lies inside the arc arrays
	}
	return pl, nil
}
