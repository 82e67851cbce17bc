package heuristics_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/heuristics/schedtest"
	"schedcomp/internal/sched"
)

// trippingContext reports cancellation after a fixed number of Err
// polls, so tests can cancel a scheduler deterministically in the
// middle of its main loop (wall-clock cancellation would be racy).
// The tripped error is context.Canceled unless err is set.
type trippingContext struct {
	context.Context
	mu    sync.Mutex
	calls int
	fuse  int
	err   error
}

func (c *trippingContext) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls <= c.fuse {
		return nil
	}
	if c.err != nil {
		return c.err
	}
	return context.Canceled
}

func (c *trippingContext) polled() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

func TestEveryHeuristicImplementsContextScheduler(t *testing.T) {
	for _, name := range heuristics.Names() {
		s, err := heuristics.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.(heuristics.ContextScheduler); !ok {
			t.Errorf("%s does not implement ContextScheduler", name)
		}
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := schedtest.RandomDAG(rand.New(rand.NewSource(1)), 30, 0.2)
	for _, name := range heuristics.Names() {
		s, err := heuristics.New(name)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := heuristics.RunContext(ctx, s, g)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if sc != nil {
			t.Errorf("%s: got a schedule from a cancelled context", name)
		}
	}
}

// TestRunContextMidScheduleCancellation is the regression test for the
// cancellation contract: a context that trips part-way through the
// scheduling loop must surface context.Canceled — never a partial
// placement — and the scheduler must actually have been polling (the
// fuse is consumed past its threshold).
func TestRunContextMidScheduleCancellation(t *testing.T) {
	g := schedtest.RandomDAG(rand.New(rand.NewSource(2)), 60, 0.15)
	for _, name := range heuristics.Names() {
		// Trip after a few polls: RunContext itself polls once up
		// front, so a fuse of 5 cancels inside the scheduling loop.
		ctx := &trippingContext{Context: context.Background(), fuse: 5}
		s, err := heuristics.New(name)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := heuristics.RunContext(ctx, s, g)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if sc != nil {
			t.Errorf("%s: got a partial schedule after mid-run cancellation", name)
		}
		if ctx.polled() <= 5 {
			t.Errorf("%s: context polled only %d times — cancellation not checked inside the loop", name, ctx.polled())
		}
	}
}

func TestRunContextDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	s, err := heuristics.New("MCP")
	if err != nil {
		t.Fatal(err)
	}
	g := schedtest.RandomDAG(rand.New(rand.NewSource(3)), 20, 0.2)
	if _, err := heuristics.RunContext(ctx, s, g); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// plainSched ignores contexts entirely, standing in for an external
// Scheduler written against the pre-context interface.
type plainSched struct{ cancel context.CancelFunc }

func (p plainSched) Name() string { return "PLAIN" }
func (p plainSched) Schedule(g *dag.Graph) (*sched.Placement, error) {
	// Cancel mid-run: the placement below is complete and valid, but
	// RunContext must still drop it because the request is gone.
	p.cancel()
	return sched.Serial(g)
}

// TestRunContextPostChecksPlainScheduler proves the fix for callers
// that ignore context: even when a legacy scheduler runs to completion
// after its request was cancelled, RunContext returns context.Canceled
// rather than the stale schedule.
func TestRunContextPostChecksPlainScheduler(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := schedtest.RandomDAG(rand.New(rand.NewSource(4)), 10, 0.3)
	sc, err := heuristics.RunContext(ctx, plainSched{cancel: cancel}, g)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sc != nil {
		t.Fatal("stale schedule leaked past a cancelled context")
	}
}

// TestRunContextBackgroundUnchanged pins the plain-Run path: no
// context means no cancellation, identical schedules.
func TestRunContextBackgroundUnchanged(t *testing.T) {
	g := schedtest.RandomDAG(rand.New(rand.NewSource(5)), 40, 0.2)
	for _, name := range heuristics.Names() {
		s1, err := heuristics.New(name)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := heuristics.New(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := heuristics.Run(s1, g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := heuristics.RunContext(context.Background(), s2, g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Makespan != b.Makespan {
			t.Errorf("%s: Run and RunContext disagree: %d vs %d", name, a.Makespan, b.Makespan)
		}
	}
}

// serialSched ignores contexts and places the whole graph on one
// processor, so every RunContext poll is one of RunContext's own.
type serialSched struct{}

func (serialSched) Name() string { return "SERIAL" }
func (serialSched) Schedule(g *dag.Graph) (*sched.Placement, error) {
	return sched.Serial(g)
}

// TestRunContextDeadlineDuringBuild pins "never a result built after
// its deadline" past the last pipeline stage: the context expires on
// its third poll, after RunContext's up-front and post-Schedule polls,
// so while Build and Validate run. The finished schedule must be
// dropped and the deadline reported.
func TestRunContextDeadlineDuringBuild(t *testing.T) {
	ctx := &trippingContext{Context: context.Background(), fuse: 2, err: context.DeadlineExceeded}
	g := schedtest.RandomDAG(rand.New(rand.NewSource(6)), 20, 0.2)
	sc, err := heuristics.RunContext(ctx, serialSched{}, g)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if sc != nil {
		t.Fatal("schedule built past its deadline was returned")
	}
}
