// Package etf implements the Earliest Task First list scheduler
// (Hwang, Chow, Anger & Lee). Where MH allocates the highest-level
// ready task first and then picks its best processor, ETF examines
// every (ready task, processor) pair and commits the globally earliest
// start, breaking ties toward the higher level. The paper invites
// "heuristics developed by all other research teams that use execution
// and architectural models similar to [those] described here" into the
// testbed; ETF is the most cited such candidate.
package etf

import (
	"context"

	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/sched"
)

func init() {
	heuristics.Register("ETF", func() heuristics.Scheduler { return New() })
}

// ETF is the scheduler. MaxProcs bounds the machine (0 = unbounded).
type ETF struct {
	MaxProcs int
}

// New returns an ETF scheduler on an unbounded machine.
func New() *ETF { return &ETF{} }

// Name implements heuristics.Scheduler.
func (e *ETF) Name() string { return "ETF" }

// Schedule implements heuristics.Scheduler.
func (e *ETF) Schedule(g *dag.Graph) (*sched.Placement, error) {
	return e.ScheduleContext(context.Background(), g)
}

// ScheduleContext implements heuristics.ContextScheduler: Schedule
// with a cancellation poll once per committed task. It commits the
// earliest start; ties go to the higher level, then the smaller ID.
func (e *ETF) ScheduleContext(ctx context.Context, g *dag.Graph) (*sched.Placement, error) {
	level, err := g.BLevels()
	if err != nil {
		return nil, err
	}
	pl, _, err := sched.ListSchedule(ctx, g, nil, e.MaxProcs, func(v dag.NodeID, sv int64, u dag.NodeID, su int64) bool {
		if sv != su {
			return sv < su
		}
		if level[v] != level[u] {
			return level[v] > level[u]
		}
		return v < u
	})
	return pl, err
}
