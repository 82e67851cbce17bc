package clans

import (
	"sort"

	"schedcomp/internal/clan"
	"schedcomp/internal/dag"
)

// primitiveDeep is the strengthened primitive handler used when
// DeepPrimitives is set: it partitions the primitive clan's members
// into proper sub-clans (clan.SubClans), schedules each composite
// block through the ordinary bottom-up machinery, and then runs the
// earliest-start list scheduler over the *quotient* — blocks as
// macro-tasks with their fragment costs and the heaviest inter-block
// edge as communication. This recovers clustering decisions the flat
// per-task scheduler cannot see, which is the kind of strengthening
// the paper alludes to when it says the comparison used "the best
// version of CLANS".
//
// It reports ok = false when no composite sub-clan exists (the flat
// handler is then used).
func (b *builder) primitiveDeep(n *clan.Node) (fragment, bool) {
	blocks, err := clan.SubClans(b.g, n.Members)
	if err != nil || len(blocks) <= 1 || len(blocks) == len(n.Members) {
		return fragment{}, false
	}

	frags := make([]fragment, len(blocks))
	composite := false
	for i, blk := range blocks {
		if len(blk) == 1 {
			frags[i] = fragment{lanes: [][]dag.NodeID{{blk[0]}}, cost: b.g.Weight(blk[0])}
			continue
		}
		sub, err := clan.ParseMembers(b.g, blk)
		if err != nil {
			return fragment{}, false
		}
		frags[i] = b.schedule(sub)
		if b.err != nil {
			// Cancelled mid-block: the fragment is empty and must not
			// be indexed; the caller's b.err check surfaces the error.
			return fragment{}, true
		}
		composite = true
	}
	if !composite {
		return fragment{}, false
	}

	// The quotient: one node per block weighing its fragment cost, and
	// per pair of blocks the heaviest member edge between them, added
	// in discovery order. Modules are convex, so the quotient of a DAG
	// is a DAG.
	blockOf := make([]int, b.g.NumNodes())
	for i := range blockOf {
		blockOf[i] = -1
	}
	q := dag.New("quotient")
	for i, blk := range blocks {
		q.AddNode(frags[i].cost)
		for _, m := range blk {
			blockOf[m] = i
		}
	}
	for i, blk := range blocks {
		for _, m := range blk {
			for _, a := range b.g.Succs(m) {
				j := blockOf[a.To]
				if j < 0 || j == i {
					continue
				}
				from, to := dag.NodeID(i), dag.NodeID(j)
				if w, ok := q.EdgeWeight(from, to); !ok {
					q.MustAddEdge(from, to, a.Weight)
				} else if a.Weight > w {
					q.SetEdgeWeight(from, to, a.Weight)
				}
			}
		}
	}
	qlanes, makespan := b.etf(q, nil)
	if b.err != nil {
		return fragment{}, true
	}

	var serial int64
	for _, m := range n.Members {
		serial += b.g.Weight(m)
	}
	if b.c.SpeedupCheck && makespan >= serial {
		flat := append([]dag.NodeID(nil), n.Members...)
		sort.Slice(flat, func(i, j int) bool { return b.topoPos[flat[i]] < b.topoPos[flat[j]] })
		return fragment{lanes: [][]dag.NodeID{flat}, cost: serial}, true
	}

	// Materialize: concatenate block home lanes per quotient lane;
	// blocks' extra lanes become processors of their own.
	lanes := make([][]dag.NodeID, 0, len(qlanes))
	extra := make([][]dag.NodeID, 0, len(blocks))
	for _, lb := range qlanes {
		size := 0
		for _, blk := range lb {
			size += len(frags[blk].lanes[0])
		}
		lane := make([]dag.NodeID, 0, size)
		for _, blk := range lb {
			lane = append(lane, frags[blk].lanes[0]...)
			extra = append(extra, frags[blk].lanes[1:]...)
		}
		lanes = append(lanes, lane)
	}
	return fragment{lanes: append(lanes, extra...), cost: makespan}, true
}
