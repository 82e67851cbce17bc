package sched_test

import (
	"strings"
	"testing"

	"schedcomp/internal/dag"
	"schedcomp/internal/sched"
	"schedcomp/internal/topology"
)

// chainAcrossRing builds the two-node chain a(10) -> b(5) with edge
// weight 4 and a placement that puts a on processor 0 and b on
// processor 2. On Ring(4) those processors are two hops apart, so the
// store-and-forward delay is 2*4 = 8, twice the uniform model's 4.
func chainAcrossRing() (*dag.Graph, *sched.Placement, *topology.Network) {
	g := dag.New("ringchain")
	a := g.AddNode(10)
	b := g.AddNode(5)
	g.MustAddEdge(a, b, 4)
	pl := sched.NewPlacement(2)
	pl.Assign(a, 0)
	pl.Assign(b, 2)
	return g, pl, topology.Ring(4)
}

func TestBuildWithTopologyDelayValidates(t *testing.T) {
	g, pl, net := chainAcrossRing()
	s, err := sched.BuildWith(g, pl, net.Delay)
	if err != nil {
		t.Fatal(err)
	}
	// Two hops at weight 4 each: b may start only at 10 + 8 = 18.
	if got := s.ByNode[1].Start; got != 18 {
		t.Errorf("b starts at %d under ring delay, want 18", got)
	}
	if s.Makespan != 23 {
		t.Errorf("makespan %d, want 23", s.Makespan)
	}
	if err := s.ValidateWith(net.Delay); err != nil {
		t.Errorf("schedule built under ring delay fails its own model: %v", err)
	}
	// The ring model dominates the uniform one, so the schedule is also
	// valid under uniform delay (with slack).
	if err := s.ValidateWith(sched.UniformDelay); err != nil {
		t.Errorf("ring-delay schedule invalid under uniform delay: %v", err)
	}
}

func TestValidateWithRejectsUniformOnlySchedule(t *testing.T) {
	g, _, net := chainAcrossRing()
	// Hand-build the schedule a uniform-model scheduler would produce:
	// b starts at 10 + 4 = 14. Correct under UniformDelay, too early
	// under the two-hop ring delay (data ready at 18).
	s := &sched.Schedule{
		Graph: g,
		ByNode: []sched.Assignment{
			{Node: 0, Proc: 0, Start: 0, Finish: 10},
			{Node: 1, Proc: 2, Start: 14, Finish: 19},
		},
		NumProcs: 3,
		Makespan: 19,
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("schedule should be valid under the uniform model: %v", err)
	}
	err := s.ValidateWith(net.Delay)
	if err == nil {
		t.Fatal("ValidateWith accepted a schedule that violates the ring delay")
	}
	if !strings.Contains(err.Error(), "before data") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestValidateWithLatencyModel(t *testing.T) {
	g, pl, net := chainAcrossRing()
	net.SetPerHopLatency(3)
	// Per-hop latency raises the transfer to 2*(4+3) = 14; b may start
	// at 24.
	s, err := sched.BuildWith(g, pl, net.Delay)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ByNode[1].Start; got != 24 {
		t.Errorf("b starts at %d with per-hop latency, want 24", got)
	}
	if err := s.ValidateWith(net.Delay); err != nil {
		t.Errorf("latency-model schedule fails its own model: %v", err)
	}
	// The same schedule without latency headroom must fail the
	// stricter check in reverse: the 18-start schedule from the plain
	// ring is invalid once latency is added.
	plain, err := sched.BuildWith(g, pl, topology.Ring(4).Delay)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.ValidateWith(net.Delay); err == nil {
		t.Error("ValidateWith accepted a schedule lacking per-hop latency headroom")
	}
}

// TestValidateWithChecksScheduleShape requires ValidateWith to apply
// every check of Validate, not only coverage and precedence: each
// broken schedule below satisfies the ring's delays yet is not a
// schedule of the execution model.
func TestValidateWithChecksScheduleShape(t *testing.T) {
	g, _, net := chainAcrossRing()
	valid := func() *sched.Schedule {
		return &sched.Schedule{
			Graph: g,
			ByNode: []sched.Assignment{
				{Node: 0, Proc: 0, Start: 0, Finish: 10},
				{Node: 1, Proc: 2, Start: 18, Finish: 23},
			},
			NumProcs: 3,
			Makespan: 23,
		}
	}
	if err := valid().ValidateWith(net.Delay); err != nil {
		t.Fatalf("valid ring schedule rejected: %v", err)
	}
	pair := dag.New("pair")
	pair.AddNode(10)
	pair.AddNode(5)
	cases := map[string]*sched.Schedule{
		"overlap on one processor": {
			Graph: pair,
			ByNode: []sched.Assignment{
				{Node: 0, Proc: 0, Start: 0, Finish: 10},
				{Node: 1, Proc: 0, Start: 5, Finish: 10},
			},
			NumProcs: 1,
			Makespan: 10,
		},
	}
	mutate := func(name string, f func(s *sched.Schedule)) {
		s := valid()
		f(s)
		cases[name] = s
	}
	mutate("finish is not start plus weight", func(s *sched.Schedule) { s.ByNode[0].Finish = 9 })
	mutate("processor out of range", func(s *sched.Schedule) { s.ByNode[1].Proc = 3 })
	mutate("negative start", func(s *sched.Schedule) { s.ByNode[0].Start, s.ByNode[0].Finish = -1, 9 })
	mutate("finish beyond makespan", func(s *sched.Schedule) { s.Makespan = 20 })
	for name, s := range cases {
		if err := s.ValidateWith(net.Delay); err == nil {
			t.Errorf("%s: ValidateWith accepted it", name)
		}
	}
}
