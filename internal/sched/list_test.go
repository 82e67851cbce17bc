package sched

import (
	"context"
	"errors"
	"testing"

	"schedcomp/internal/dag"
)

// earliestFirst orders tasks by start, then ID.
func earliestFirst(v dag.NodeID, sv int64, u dag.NodeID, su int64) bool {
	if sv != su {
		return sv < su
	}
	return v < u
}

func TestListScheduleIgnoresArcsFromOutside(t *testing.T) {
	// 0 -> 1 -> 2 with a heavy edge into 1; scheduling {1, 2} alone
	// must neither wait for 0 nor pay its edge.
	g := dag.New("outside")
	a, b, c := g.AddNode(50), g.AddNode(10), g.AddNode(20)
	g.MustAddEdge(a, b, 100)
	g.MustAddEdge(b, c, 5)
	pl, makespan, err := ListSchedule(context.Background(), g, []dag.NodeID{b, c}, 0, earliestFirst)
	if err != nil {
		t.Fatal(err)
	}
	if makespan != 30 {
		t.Errorf("makespan = %d, want 30 (1 then 2 on one processor)", makespan)
	}
	if pl.Proc[a] != -1 || pl.Proc[b] != 0 || pl.Proc[c] != 0 {
		t.Errorf("Proc = %v, want [-1 0 0]", pl.Proc)
	}
}

func TestListScheduleHonoursMaxProcs(t *testing.T) {
	g := dag.New("wide")
	for i := 0; i < 7; i++ {
		g.AddNode(10)
	}
	for _, maxProcs := range []int{0, 1, 2, 3} {
		pl, makespan, err := ListSchedule(context.Background(), g, nil, maxProcs, earliestFirst)
		if err != nil {
			t.Fatal(err)
		}
		procs, want := pl.NumProcs(), maxProcs
		if maxProcs == 0 {
			want = 7
		}
		if procs != want {
			t.Errorf("maxProcs %d: %d processors used, want %d", maxProcs, procs, want)
		}
		if wantSpan := int64(10 * ((7 + want - 1) / want)); makespan != wantSpan {
			t.Errorf("maxProcs %d: makespan %d, want %d", maxProcs, makespan, wantSpan)
		}
		if s, err := Build(g, pl); err != nil || s.Makespan != makespan {
			t.Errorf("maxProcs %d: Build makespan %v (err %v), ListSchedule said %d", maxProcs, s, err, makespan)
		}
	}
}

// pollLimit reports cancellation from its limit-th Err call on.
type pollLimit struct {
	context.Context
	polls, limit int
}

func (c *pollLimit) Err() error {
	c.polls++
	if c.polls >= c.limit {
		return context.DeadlineExceeded
	}
	return nil
}

func TestListScheduleStopsWhenContextExpires(t *testing.T) {
	g := chain3()
	ctx := &pollLimit{Context: context.Background(), limit: 2}
	pl, makespan, err := ListSchedule(ctx, g, nil, 0, earliestFirst)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if pl != nil || makespan != 0 {
		t.Errorf("got placement %v, makespan %d after cancellation", pl, makespan)
	}
	if ctx.polls != 2 {
		t.Errorf("%d polls, want 2 (one per commit, stop at the first expired one)", ctx.polls)
	}
}

func TestEarliestGap(t *testing.T) {
	var ts Timelines
	ts.Insert(0, 0, 0, 10)
	ts.Insert(0, 1, 25, 30) // idle gap [10, 25)
	cases := []struct {
		name  string
		p     int
		ready int64
		w     int64
		want  int64
	}{
		{"gap of exactly w", 0, 10, 15, 10},
		{"gap too short", 0, 10, 16, 30},
		{"ready inside the gap", 0, 12, 13, 12},
		{"ready past the gap's room", 0, 12, 14, 30},
		{"ready after the last task", 0, 40, 5, 40},
		{"new processor", 1, 7, 100, 7},
	}
	for _, c := range cases {
		if got := ts.EarliestGap(c.p, c.ready, c.w); got != c.want {
			t.Errorf("%s: EarliestGap(%d, %d, %d) = %d, want %d", c.name, c.p, c.ready, c.w, got, c.want)
		}
	}
	if ts.End(0) != 30 || ts.End(1) != 0 {
		t.Errorf("End = %d, %d; want 30, 0", ts.End(0), ts.End(1))
	}
}

func TestInsertEqualStartGoesFirst(t *testing.T) {
	var ts Timelines
	ts.Insert(0, 0, 10, 20)
	ts.Insert(0, 1, 0, 5)
	ts.Insert(0, 2, 10, 10) // same start as node 0: goes before it
	ts.Insert(1, 3, 0, 1)   // opens processor 1
	pl := ts.Placement(4)
	want := [][]dag.NodeID{{1, 2, 0}, {3}}
	if len(pl.Order) != len(want) {
		t.Fatalf("Order = %v, want %v", pl.Order, want)
	}
	for p := range want {
		for i := range want[p] {
			if pl.Order[p][i] != want[p][i] {
				t.Fatalf("Order = %v, want %v", pl.Order, want)
			}
		}
	}
}

func TestArrival(t *testing.T) {
	g := dag.New("join")
	a, b, c := g.AddNode(10), g.AddNode(10), g.AddNode(10)
	g.MustAddEdge(a, c, 5)
	g.MustAddEdge(b, c, 3)
	csr := g.CSR()
	finish := []int64{10, 20, 0}
	proc := []int{0, 1, -1}
	for p, want := range []int64{23, 20, 23} {
		if got := Arrival(csr, proc, finish, c, p); got != want {
			t.Errorf("Arrival on processor %d = %d, want %d", p, got, want)
		}
	}
	proc[b] = -1 // unplaced predecessors are ignored
	if got := Arrival(csr, proc, finish, c, 1); got != 15 {
		t.Errorf("Arrival ignoring node 1 = %d, want 15", got)
	}
}
