// Package flagged exercises direct source-to-sink flows: every
// function here contains a nondeterminism bug the analyzer must see.
package flagged

import (
	"time"

	"schedcomp/internal/dag"
	"schedcomp/internal/pq"
	"schedcomp/internal/sched"
)

// DirectMapIter is the classic bug: map iteration order decides which
// processor each node lands on.
func DirectMapIter(weight map[dag.NodeID]int) *sched.Placement {
	pl := sched.NewPlacement(len(weight))
	p := 0
	for v := range weight {
		pl.Assign(v, p) // want `taintnondet: sched.Placement.Assign receives a value tainted by map iteration order`
		p++
	}
	return pl
}

// TimeImplicit flows wall-clock time into the processor choice through
// a branch only — an implicit, control-dependence flow with no data
// edge from time.Now to the sink.
func TimeImplicit() *sched.Placement {
	pl := sched.NewPlacement(4)
	proc := 0
	if time.Now().UnixNano()%2 == 0 {
		proc = 1
	}
	pl.Assign(0, proc) // want `taintnondet: sched.Placement.Assign receives a value tainted by wall-clock time`
	return pl
}

// SelectArm assigns whichever worker answers first, so the placement
// depends on goroutine timing.
func SelectArm(a, b chan dag.NodeID) *sched.Placement {
	pl := sched.NewPlacement(2)
	select {
	case v := <-a:
		pl.Assign(v, 0) // want `taintnondet: sched.Placement.Assign receives a value tainted by channel receive ordering`
	case v := <-b:
		pl.Assign(v, 1) // want `taintnondet: sched.Placement.Assign receives a value tainted by channel receive ordering`
	}
	return pl
}

// HeapOrder pushes map-derived keys into a priority queue whose Less
// may tie, so pop order inherits the iteration order.
func HeapOrder(weight map[dag.NodeID]int) []dag.NodeID {
	h := pq.New(func(x, y dag.NodeID) bool { return weight[x] < weight[y] })
	for v := range weight {
		h.Push(v) // want `taintnondet: pq.Heap.Push item receives a value tainted by map iteration order`
	}
	out := make([]dag.NodeID, 0, h.Len())
	for !h.Empty() {
		out = append(out, h.Pop())
	}
	return out
}

// DirectStore bypasses Assign and writes the Proc slice with a
// map-ordered index.
func DirectStore(weight map[dag.NodeID]int) *sched.Placement {
	pl := sched.NewPlacement(len(weight))
	p := 0
	for v := range weight {
		pl.Proc[v] = p // want `taintnondet: store into sched.Placement receives a value tainted by map iteration order`
		p++
	}
	return pl
}

// BothArgs derives the processor from the map-ordered key itself, so
// both Assign arguments carry the taint; the call is reported once.
func BothArgs(weight map[dag.NodeID]int) *sched.Placement {
	pl := sched.NewPlacement(len(weight))
	for v := range weight {
		pl.Assign(v, int(v)%2) // want `taintnondet: sched.Placement.Assign receives a value tainted by map iteration order`
	}
	return pl
}
