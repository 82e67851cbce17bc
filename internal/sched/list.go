package sched

import (
	"context"

	"schedcomp/internal/arena"
	"schedcomp/internal/dag"
)

// Arrival returns the time the last input of v reaches processor p:
// the latest predecessor finish, plus the edge weight when that
// predecessor runs on another processor (the paper's uniform model).
// proc and finish are indexed by node; a predecessor with a negative
// proc is not placed and is ignored. A processor that runs none of v's
// predecessors — a fresh one, say — pays every edge.
//
//lint:boundedidx predecessor IDs are node indexes in [0,n), the length of proc and finish
func Arrival(csr *dag.CSR, proc []int, finish []int64, v dag.NodeID, p int) (t int64) {
	preds, ws := csr.Preds(v)
	for j, u := range preds {
		if q := proc[u]; q >= 0 {
			at := finish[u]
			if q != p {
				at += ws[j]
			}
			t = max(t, at)
		}
	}
	return t
}

// ListSchedule is the greedy earliest-start list scheduler shared by
// ETF, DLS and CLANS. It schedules the subgraph of g induced by nodes
// (nil means every node; arcs from nodes outside the set are ignored).
// At every step each ready task is timed on every used processor plus
// one fresh processor, while fewer than maxProcs are in use (0 means
// unbounded); a task's best pair is its earliest start, ties to the
// lower processor. better(v, sv, u, su) reports whether task v starting
// at sv is committed before task u starting at su; it must be a strict
// total order (break final ties by ID), so the result does not depend
// on the order of the ready list.
//
// ctx is polled once per committed task. ListSchedule returns the
// placement, in which only the scheduled nodes are assigned, and its
// makespan.
//
//lint:boundedidx nodes and their successors are node indexes in [0,n), processors stay below len(free)
func ListSchedule(ctx context.Context, g *dag.Graph, nodes []dag.NodeID, maxProcs int,
	better func(v dag.NodeID, sv int64, u dag.NodeID, su int64) bool) (*Placement, int64, error) {
	n := g.NumNodes()
	pl := NewPlacement(n)
	csr := g.CSR()
	scratch := arena.Get()
	defer scratch.Release()
	if nodes == nil {
		nodes = scratch.NodeIDs(n)
		for v := range nodes {
			nodes[v] = dag.NodeID(v)
		}
	}
	in := scratch.Bools(n)
	for _, v := range nodes {
		in[v] = true
	}
	missing := scratch.Int32s(n)
	ready := scratch.NodeIDs(len(nodes))[:0]
	for _, v := range nodes {
		preds, _ := csr.Preds(v)
		for _, u := range preds {
			if in[u] {
				missing[v]++
			}
		}
		if missing[v] == 0 {
			ready = append(ready, v)
		}
	}
	finish := scratch.Int64s(n)
	// Every task opens at most one processor. hosts[p] == stamp marks
	// the processors running a predecessor of the task being timed.
	free := scratch.Int64s(len(nodes))[:0]
	hosts := scratch.Ints(len(nodes))
	stamp := 0
	var makespan int64
	for len(ready) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		cand := len(free)
		if maxProcs == 0 || cand < maxProcs {
			cand++
		}
		bestI, bestP := -1, -1
		var bestStart int64
		for i, v := range ready {
			// A processor running no predecessor of v sees the arrival
			// with every edge paid; only the hosts need a rescan.
			stamp++
			preds, _ := csr.Preds(v)
			for _, u := range preds {
				if q := pl.Proc[u]; q >= 0 {
					hosts[q] = stamp
				}
			}
			far := Arrival(csr, pl.Proc, finish, v, -1)
			vp, vs := -1, int64(0)
			for p := 0; p < cand; p++ {
				s := far
				if p < len(free) {
					if hosts[p] == stamp {
						s = Arrival(csr, pl.Proc, finish, v, p)
					}
					s = max(s, free[p])
				}
				if vp == -1 || s < vs {
					vp, vs = p, s
				}
			}
			if bestI == -1 || better(v, vs, ready[bestI], bestStart) {
				bestI, bestP, bestStart = i, vp, vs
			}
		}
		v := ready[bestI]
		ready[bestI] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		if bestP == len(free) {
			free = append(free, 0)
		}
		f := bestStart + g.Weight(v)
		finish[v], free[bestP] = f, f
		makespan = max(makespan, f)
		pl.Assign(v, bestP)
		succs, _ := csr.Succs(v)
		for _, u := range succs {
			if in[u] {
				if missing[u]--; missing[u] == 0 {
					ready = append(ready, u)
				}
			}
		}
	}
	return pl, makespan, nil
}

// Timelines is the state of an insertion list scheduler (MCP, DCP):
// per processor, the committed tasks as intervals sorted by start. A
// task may be placed into an idle gap before tasks committed earlier.
type Timelines [][]slot

type slot struct {
	node          dag.NodeID
	start, finish int64
}

// EarliestGap returns the earliest start at or after ready of a task
// of weight w on processor p: the first idle gap of length at least w,
// else the finish of p's last task. A processor p >= len(ts) is fresh
// and returns ready.
func (ts Timelines) EarliestGap(p int, ready, w int64) int64 {
	if p >= len(ts) {
		return ready
	}
	cur := ready
	for _, s := range ts[p] {
		if cur+w <= s.start {
			return cur
		}
		cur = max(cur, s.finish)
	}
	return cur
}

// End returns the finish of processor p's last task, 0 for a fresh
// processor.
func (ts Timelines) End(p int) int64 {
	if p >= len(ts) || len(ts[p]) == 0 {
		return 0
	}
	return ts[p][len(ts[p])-1].finish
}

// Insert records v on processor p over [start, finish), opening a new
// processor when p == len(*ts). The slot goes before any slot with the
// same or a later start.
//
//lint:boundedidx the search keeps i <= mid < hi <= len(tl)
func (ts *Timelines) Insert(p int, v dag.NodeID, start, finish int64) {
	if p == len(*ts) {
		*ts = append(*ts, nil)
	}
	tl := (*ts)[p]
	// Binary search by hand: a sort.Search closure would capture start
	// and allocate on every commit.
	i, hi := 0, len(tl)
	for i < hi {
		mid := int(uint(i+hi) >> 1)
		if tl[mid].start >= start {
			hi = mid
		} else {
			i = mid + 1
		}
	}
	tl = append(tl, slot{})
	copy(tl[i+1:], tl[i:])
	tl[i] = slot{node: v, start: start, finish: finish}
	(*ts)[p] = tl
}

// Placement returns the placement of n nodes that runs each
// processor's tasks in start order.
func (ts Timelines) Placement(n int) *Placement {
	pl := NewPlacement(n)
	for p, tl := range ts {
		for _, s := range tl {
			pl.Assign(s.node, p)
		}
	}
	return pl
}
