// Package clans implements the clan-based graph decomposition scheduler
// of McCreary & Gill (Appendix A.5 of the paper).
//
// The PDG is first parsed into its clan tree (internal/clan). Costs are
// then assigned bottom-up:
//
//   - a leaf costs its task weight;
//   - a linear clan sequences its children on a shared "home" lane; for
//     each independent child it decides between clustering (children
//     concatenated on the home lane, cost = sum of child costs) and
//     parallelization (each child on its own processor group, cost =
//     max over children of child cost plus the communication paid for
//     moving it off the home processor), keeping the cheaper option;
//   - following the paper's worked example, the child with the largest
//     cost-plus-communication stays on the home processor, so its
//     boundary communication is never paid;
//   - a primitive clan is scheduled by the shared earliest-start list
//     scheduler (sched.ListSchedule over its induced subgraph), and kept
//     only if it beats executing the clan serially.
//
// The "keep the cheaper option" rule is the paper's speedup check at
// every linear node: it gives CLANS macro-level control and is the
// reason CLANS never produces a schedule slower than serial execution
// (Table 2's column of zeros). As a final guard — the bottom-up costs
// are estimates, the timed schedule is exact — the scheduler falls back
// to the single-processor schedule if the built schedule ever exceeds
// serial time.
package clans

import (
	"context"
	"sort"

	"schedcomp/internal/clan"
	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/sched"
)

func init() {
	heuristics.Register("CLANS", func() heuristics.Scheduler { return New() })
}

// CLANS is the scheduler. SpeedupCheck enables the per-decision
// serialization guard (the paper's configuration); the ablation benches
// disable it to quantify its effect. DeepPrimitives additionally
// extracts proper sub-clans inside primitive clans and schedules their
// quotient (see primitiveDeep) — the strengthened variant alluded to
// by the paper's "best version of CLANS" remark; off by default to
// match the flat cost model.
type CLANS struct {
	SpeedupCheck   bool
	DeepPrimitives bool
}

// New returns a CLANS scheduler with the speedup check enabled.
func New() *CLANS { return &CLANS{SpeedupCheck: true} }

// Name implements heuristics.Scheduler.
func (c *CLANS) Name() string { return "CLANS" }

// fragment is a relative schedule for one clan: an ordered set of
// processor lanes. lanes[0] is the "home" lane that merges with the
// surrounding linear sequence; the remaining lanes become processors of
// their own. cost estimates the fragment's completion time.
type fragment struct {
	lanes [][]dag.NodeID
	cost  int64
}

type builder struct {
	c       *CLANS
	g       *dag.Graph
	ctx     context.Context
	err     error // sticky cancellation error; lanes are garbage once set
	topoPos []int
	member  []bool // scratch: membership of the current child clan
}

// Schedule implements heuristics.Scheduler.
func (c *CLANS) Schedule(g *dag.Graph) (*sched.Placement, error) {
	return c.ScheduleContext(context.Background(), g)
}

// ScheduleContext implements heuristics.ContextScheduler: Schedule
// with a cancellation poll at every clan-tree node and once per task
// committed by the primitive-clan list scheduler.
func (c *CLANS) ScheduleContext(ctx context.Context, g *dag.Graph) (*sched.Placement, error) {
	n := g.NumNodes()
	if n == 0 {
		return sched.NewPlacement(0), nil
	}
	tree, err := clan.Parse(g)
	if err != nil {
		return nil, err
	}
	pos, err := g.TopoPositions()
	if err != nil {
		return nil, err
	}
	b := &builder{c: c, g: g, ctx: ctx, topoPos: pos, member: make([]bool, n)}
	frag := b.schedule(tree.Root)
	if b.err != nil {
		return nil, b.err
	}

	pl := sched.NewPlacement(n)
	for p, lane := range frag.lanes {
		for _, v := range lane {
			pl.Assign(v, p)
		}
	}
	s, err := sched.Build(g, pl)
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if c.SpeedupCheck && s.Makespan > g.SerialTime() {
		return sched.Serial(g)
	}
	return pl, nil
}

func (b *builder) schedule(n *clan.Node) fragment {
	if b.err != nil {
		return fragment{}
	}
	if err := b.ctx.Err(); err != nil {
		b.err = err
		return fragment{}
	}
	switch n.Kind {
	case clan.Leaf:
		return fragment{lanes: [][]dag.NodeID{{n.Task}}, cost: b.g.Weight(n.Task)}
	case clan.Linear:
		return b.linear(n)
	case clan.Independent:
		return b.independent(n)
	case clan.Primitive:
		return b.primitive(n)
	}
	panic("clans: unknown clan kind")
}

// linear sequences the children on a shared home lane. Extra lanes
// produced by children (parallelized independents, primitive
// schedules) become separate processors.
func (b *builder) linear(n *clan.Node) fragment {
	var home []dag.NodeID
	var extra [][]dag.NodeID
	var cost int64
	for _, child := range n.Children {
		f := b.schedule(child)
		if b.err != nil {
			// A cancelled child returns an empty fragment; indexing
			// its lanes would panic, so bail out before touching it.
			return fragment{}
		}
		home = append(home, f.lanes[0]...)
		extra = append(extra, f.lanes[1:]...)
		cost += f.cost
	}
	return fragment{lanes: append([][]dag.NodeID{home}, extra...), cost: cost}
}

// independent decides between clustering and parallelizing the
// children, the core trade-off of the cost model.
func (b *builder) independent(n *clan.Node) fragment {
	frags := make([]fragment, len(n.Children))
	penalty := make([]int64, len(n.Children))
	var serialCost int64
	for i, child := range n.Children {
		frags[i] = b.schedule(child)
		if b.err != nil {
			// See linear: never index a cancelled child's lanes.
			return fragment{}
		}
		serialCost += frags[i].cost
		in, out := b.boundaryComm(child.Members)
		penalty[i] = in + out
	}

	// The child with the greatest cost-plus-communication stays home
	// (the paper's example keeps the heavier C1 on the shared
	// processor and moves node 2 off).
	h := 0
	for i := range frags {
		if frags[i].cost+penalty[i] > frags[h].cost+penalty[h] {
			h = i
		}
	}
	parCost := frags[h].cost
	for i := range frags {
		if i == h {
			continue
		}
		if c := frags[i].cost + penalty[i]; c > parCost {
			parCost = c
		}
	}

	if !b.c.SpeedupCheck || parCost < serialCost {
		lanes := [][]dag.NodeID{frags[h].lanes[0]}
		lanes = append(lanes, frags[h].lanes[1:]...)
		for i := range frags {
			if i != h {
				lanes = append(lanes, frags[i].lanes...)
			}
		}
		return fragment{lanes: lanes, cost: parCost}
	}

	// Cluster: concatenate home lanes (children are mutually
	// independent, so any order is valid); keep children's own extra
	// lanes.
	var home []dag.NodeID
	var extra [][]dag.NodeID
	for _, f := range frags {
		home = append(home, f.lanes[0]...)
		extra = append(extra, f.lanes[1:]...)
	}
	return fragment{lanes: append([][]dag.NodeID{home}, extra...), cost: serialCost}
}

// boundaryComm returns the heaviest edge entering and leaving the
// member set: the communication a child pays when moved to its own
// processor (messages multicast in parallel, so the max governs).
func (b *builder) boundaryComm(members []dag.NodeID) (in, out int64) {
	for _, m := range members {
		b.member[m] = true
	}
	for _, m := range members {
		for _, a := range b.g.Preds(m) {
			if !b.member[a.To] && a.Weight > in {
				in = a.Weight
			}
		}
		for _, a := range b.g.Succs(m) {
			if !b.member[a.To] && a.Weight > out {
				out = a.Weight
			}
		}
	}
	for _, m := range members {
		b.member[m] = false
	}
	return in, out
}

// primitive schedules a structureless clan with an earliest-start list
// scheduler over the induced subgraph, falling back to serial order
// when that does not win. With DeepPrimitives the quotient handler is
// tried first.
func (b *builder) primitive(n *clan.Node) fragment {
	if b.c.DeepPrimitives {
		if f, ok := b.primitiveDeep(n); ok {
			return f
		}
	}
	lanes, makespan := b.etf(b.g, n.Members)
	if b.err != nil {
		return fragment{}
	}
	var serial int64
	for _, m := range n.Members {
		serial += b.g.Weight(m)
	}
	if b.c.SpeedupCheck && makespan >= serial {
		flat := append([]dag.NodeID(nil), n.Members...)
		sort.Slice(flat, func(i, j int) bool { return b.topoPos[flat[i]] < b.topoPos[flat[j]] })
		return fragment{lanes: [][]dag.NodeID{flat}, cost: serial}
	}
	return fragment{lanes: lanes, cost: makespan}
}

// etf runs the earliest-start list scheduler over the subgraph of g
// induced by nodes (nil: all of g). External edges are ignored: they
// are uniform for a clan and handled by the enclosing cost model. One
// fresh lane is always allowed; ties go to the heavier task, then the
// smaller ID. It returns the lanes and the internal makespan estimate;
// on cancellation it records b.err and returns no lanes.
func (b *builder) etf(g *dag.Graph, nodes []dag.NodeID) ([][]dag.NodeID, int64) {
	pl, makespan, err := sched.ListSchedule(b.ctx, g, nodes, 0, func(v dag.NodeID, sv int64, u dag.NodeID, su int64) bool {
		if sv != su {
			return sv < su
		}
		if g.Weight(v) != g.Weight(u) {
			return g.Weight(v) > g.Weight(u)
		}
		return v < u
	})
	if err != nil {
		b.err = err
		return nil, 0
	}
	return pl.Order, makespan
}
