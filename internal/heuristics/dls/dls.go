// Package dls implements Dynamic Level Scheduling (Sih & Lee), another
// classic candidate for the paper's open testbed. At every step it
// examines all (ready task, processor) pairs and commits the pair with
// the greatest dynamic level
//
//	DL(n, p) = SL(n) − start(n, p)
//
// where SL is the static level (communication-weighted longest path to
// an exit) and start(n, p) the earliest start of n on p given current
// commitments. Maximizing DL balances "urgent task" against "early
// slot": a high-level task may wait for a good processor while a
// low-level one takes an immediate slot elsewhere.
package dls

import (
	"context"

	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/sched"
)

func init() {
	heuristics.Register("DLS", func() heuristics.Scheduler { return New() })
}

// DLS is the scheduler. MaxProcs bounds the machine (0 = unbounded).
type DLS struct {
	MaxProcs int
}

// New returns a DLS scheduler on an unbounded machine.
func New() *DLS { return &DLS{} }

// Name implements heuristics.Scheduler.
func (d *DLS) Name() string { return "DLS" }

// Schedule implements heuristics.Scheduler.
func (d *DLS) Schedule(g *dag.Graph) (*sched.Placement, error) {
	return d.ScheduleContext(context.Background(), g)
}

// ScheduleContext implements heuristics.ContextScheduler: Schedule
// with a cancellation poll once per committed task. It commits the
// greatest dynamic level; ties go to the smaller ID.
func (d *DLS) ScheduleContext(ctx context.Context, g *dag.Graph) (*sched.Placement, error) {
	level, err := g.BLevels()
	if err != nil {
		return nil, err
	}
	pl, _, err := sched.ListSchedule(ctx, g, nil, d.MaxProcs, func(v dag.NodeID, sv int64, u dag.NodeID, su int64) bool {
		if dv, du := level[v]-sv, level[u]-su; dv != du {
			return dv > du
		}
		return v < u
	})
	return pl, err
}
