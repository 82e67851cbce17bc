// Package dcp implements a mobility-driven list scheduler inspired by
// Kwok & Ahmad's Dynamic Critical Path algorithm. Each step recomputes
// earliest and latest start times (AEST/ALST) over the partial
// schedule; among the ready tasks it picks the one with the smallest
// mobility (ALST − AEST — zero mobility means the task sits on the
// current dynamic critical path), places it with gap insertion on the
// processor that minimizes its start, and breaks processor ties with a
// one-step lookahead toward the task's critical child (preferring the
// processor from which that child could start earliest).
//
// Deviation from the original DCP: the original may reserve slots for
// tasks whose parents are not yet scheduled; the common placement
// model used by this testbed (per-processor orders replayed by one
// greedy builder, §2 of the paper) cannot express such reservations,
// so selection is restricted to ready tasks. The registry name "DCP"
// refers to this variant throughout.
package dcp

import (
	"context"

	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/sched"
)

func init() {
	heuristics.Register("DCP", func() heuristics.Scheduler { return New() })
}

// DCP is the scheduler. The zero value is ready to use.
type DCP struct{}

// New returns a DCP scheduler.
func New() *DCP { return &DCP{} }

// Name implements heuristics.Scheduler.
func (d *DCP) Name() string { return "DCP" }

// Schedule implements heuristics.Scheduler.
func (d *DCP) Schedule(g *dag.Graph) (*sched.Placement, error) {
	return d.ScheduleContext(context.Background(), g)
}

// ScheduleContext implements heuristics.ContextScheduler: Schedule
// with a cancellation poll once per committed task.
func (d *DCP) ScheduleContext(ctx context.Context, g *dag.Graph) (*sched.Placement, error) {
	n := g.NumNodes()
	if n == 0 {
		return sched.NewPlacement(0), nil
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}

	scheduled := make([]bool, n)
	proc := make([]int, n)
	start := make([]int64, n)
	finish := make([]int64, n)
	missing := make([]int, n)
	for v := 0; v < n; v++ {
		missing[v] = g.InDegree(dag.NodeID(v))
	}
	csr := g.CSR()
	var ts sched.Timelines

	aest := make([]int64, n)
	alst := make([]int64, n)

	recompute := func() {
		// AEST forward: scheduled tasks are pinned; unscheduled ones
		// assume full communication from every predecessor (their
		// processor is unknown).
		for _, v := range order {
			if scheduled[v] {
				aest[v] = start[v]
				continue
			}
			var e int64
			for _, a := range g.Preds(v) {
				p := a.To
				var t int64
				if scheduled[p] {
					t = finish[p] + a.Weight
				} else {
					t = aest[p] + g.Weight(p) + a.Weight
				}
				if t > e {
					e = t
				}
			}
			aest[v] = e
		}
		// Schedule-length bound, then ALST backward.
		var bound int64
		for v := 0; v < n; v++ {
			if c := aest[v] + g.Weight(dag.NodeID(v)); c > bound {
				bound = c
			}
		}
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			if scheduled[v] {
				alst[v] = start[v]
				continue
			}
			l := bound - g.Weight(v)
			for _, a := range g.Succs(v) {
				s := a.To
				var t int64
				if scheduled[s] {
					t = start[s] - a.Weight - g.Weight(v)
				} else {
					t = alst[s] - a.Weight - g.Weight(v)
				}
				if t < l {
					l = t
				}
			}
			alst[v] = l
		}
	}

	// criticalChild returns v's unscheduled successor with the least
	// mobility (the one the dynamic critical path runs through).
	criticalChild := func(v dag.NodeID) (dag.NodeID, bool) {
		best := dag.NodeID(-1)
		var bestMob int64
		for _, a := range g.Succs(v) {
			if scheduled[a.To] {
				continue
			}
			mob := alst[a.To] - aest[a.To]
			if best < 0 || mob < bestMob || (mob == bestMob && a.To < best) {
				best, bestMob = a.To, mob
			}
		}
		return best, best >= 0
	}

	for done := 0; done < n; done++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		recompute()
		// Ready task with minimal mobility; ties to smaller AEST, then
		// smaller ID.
		pick := dag.NodeID(-1)
		var pickMob int64
		for v := 0; v < n; v++ {
			if scheduled[v] || missing[v] != 0 {
				continue
			}
			mob := alst[v] - aest[v]
			node := dag.NodeID(v)
			better := pick < 0 || mob < pickMob ||
				(mob == pickMob && aest[node] < aest[pick]) ||
				(mob == pickMob && aest[node] == aest[pick] && node < pick)
			if better {
				pick, pickMob = node, mob
			}
		}

		// Processor choice: minimize start; among equal starts, prefer
		// the processor minimizing the critical child's estimated
		// local start.
		cc, hasCC := criticalChild(pick)
		bestP, bestStart := -1, int64(0)
		var bestLook int64
		for p := 0; p <= len(ts); p++ {
			st := ts.EarliestGap(p, sched.Arrival(csr, proc, finish, pick, p), g.Weight(pick)) //lint:boundedidx the CSR window of v lies inside the arc arrays
			look := st + g.Weight(pick)
			if hasCC {
				// If the child follows on this processor the edge is
				// free; its other parents are approximated by AEST.
				look = max(look, aest[cc])
			}
			better := bestP == -1 || st < bestStart ||
				(st == bestStart && look < bestLook)
			if p == len(ts) && bestP != -1 && st >= bestStart {
				better = false // open a new processor only when strictly earlier
			}
			if better {
				bestP, bestStart, bestLook = p, st, look
			}
		}
		scheduled[pick] = true
		proc[pick] = bestP
		start[pick] = bestStart
		finish[pick] = bestStart + g.Weight(pick)
		ts.Insert(bestP, pick, bestStart, finish[pick])
		for _, a := range g.Succs(pick) {
			missing[a.To]--
		}
	}

	return ts.Placement(n), nil
}
