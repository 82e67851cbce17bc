// Package heuristics defines the Scheduler interface implemented by the
// five heuristics under comparison (CLANS, DSC, MCP, MH, HU) and a
// name-based registry used by the harness and the CLIs.
package heuristics

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"schedcomp/internal/dag"
	"schedcomp/internal/obs"
	"schedcomp/internal/sched"
)

// Scheduler partitions and schedules a PDG, producing a placement
// (processor assignment and per-processor order). Timing is always
// computed afterwards by sched.Build so that every heuristic is
// evaluated under the identical execution model (paper §2).
//
// Implementations must be deterministic: the same graph must always
// produce the same placement.
type Scheduler interface {
	Name() string
	Schedule(g *dag.Graph) (*sched.Placement, error)
}

// ContextScheduler is implemented by schedulers that can abandon work
// cooperatively when the context is cancelled. Implementations poll
// ctx once per committed task (topo-order granularity), so a cancelled
// request stops burning CPU within one scheduling step rather than
// running the graph to completion. On cancellation they return ctx's
// error (context.Canceled or context.DeadlineExceeded), never a
// partial placement.
//
// Every heuristic in this module implements it; the interface stays
// optional so external Scheduler implementations keep working — they
// are then only cancellable at stage boundaries (see RunContext).
type ContextScheduler interface {
	ScheduleContext(ctx context.Context, g *dag.Graph) (*sched.Placement, error)
}

// runMetrics holds one heuristic's obs instruments. Per-heuristic
// labels are bounded by the registry of scheduler names, satisfying
// the obs cardinality rules.
type runMetrics struct {
	seconds      *obs.Histogram
	schedules    *obs.Counter
	cancelled    *obs.Counter
	failSchedule *obs.Counter
	failBuild    *obs.Counter
	failValidate *obs.Counter
}

// runMetricsCache maps heuristic name -> *runMetrics so the Run hot
// path does one lock-free load instead of a registry lookup.
var runMetricsCache sync.Map

func metricsFor(name string) *runMetrics {
	if m, ok := runMetricsCache.Load(name); ok {
		return m.(*runMetrics)
	}
	reg := obs.Default()
	heur := obs.L("heuristic", name)
	m := &runMetrics{
		seconds: reg.Histogram("sched_schedule_seconds",
			"Time to schedule, build and validate one graph.", obs.DefTimeBuckets, heur),
		schedules: reg.Counter("sched_schedules_total",
			"Validated schedules produced.", heur),
		cancelled: reg.Counter("sched_run_cancellations_total",
			"Runs abandoned because the context was cancelled or expired.", heur),
		failSchedule: reg.Counter("sched_run_failures_total",
			"Run failures by pipeline stage.", heur, obs.L("stage", "schedule")),
		failBuild: reg.Counter("sched_run_failures_total",
			"Run failures by pipeline stage.", heur, obs.L("stage", "build")),
		failValidate: reg.Counter("sched_run_failures_total",
			"Run failures by pipeline stage.", heur, obs.L("stage", "validate")),
	}
	// The registry lookups above are idempotent, so a racing
	// initializer builds an identical wrapper; keep whichever landed.
	got, _ := runMetricsCache.LoadOrStore(name, m)
	return got.(*runMetrics)
}

// Run schedules g with s, builds the timed schedule, and validates it
// against the execution model.
func Run(s Scheduler, g *dag.Graph) (*sched.Schedule, error) {
	return RunContext(context.Background(), s, g)
}

// IsCancellation reports whether err is a context cancellation or
// deadline error (possibly wrapped).
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// RunContext is Run under a cancellable context. Cancellation is
// cooperative: schedulers implementing ContextScheduler abandon work
// at topo-order granularity, plain Schedulers only between pipeline
// stages. A cancelled run returns ctx's error — satisfying
// errors.Is(err, context.Canceled) or context.DeadlineExceeded — and
// never a partial schedule. Cancellations are counted separately from
// failures: the heuristic did nothing wrong.
func RunContext(ctx context.Context, s Scheduler, g *dag.Graph) (*sched.Schedule, error) {
	m := metricsFor(s.Name())
	enabled := obs.Default().Enabled()
	var t0 time.Time
	if enabled {
		t0 = time.Now()
	}
	if err := ctx.Err(); err != nil {
		m.cancelled.Inc()
		return nil, err
	}
	var pl *sched.Placement
	var err error
	if cs, ok := s.(ContextScheduler); ok {
		pl, err = cs.ScheduleContext(ctx, g)
	} else {
		pl, err = s.Schedule(g)
	}
	if err != nil {
		if IsCancellation(err) {
			m.cancelled.Inc()
			return nil, err
		}
		m.failSchedule.Inc()
		return nil, fmt.Errorf("%s: %w", s.Name(), err)
	}
	// A scheduler without context support runs to completion; drop its
	// placement here so an expired request never yields a result built
	// after its deadline.
	if err := ctx.Err(); err != nil {
		m.cancelled.Inc()
		return nil, err
	}
	sc, err := sched.Build(g, pl)
	if err != nil {
		m.failBuild.Inc()
		return nil, fmt.Errorf("%s: %w", s.Name(), err)
	}
	if err := sc.Validate(); err != nil {
		m.failValidate.Inc()
		return nil, fmt.Errorf("%s: %w", s.Name(), err)
	}
	// Build and Validate run to completion; a deadline that passed
	// while they ran still voids the result.
	if err := ctx.Err(); err != nil {
		m.cancelled.Inc()
		return nil, err
	}
	if enabled {
		m.seconds.Observe(time.Since(t0).Seconds())
	}
	m.schedules.Inc()
	return sc, nil
}

var (
	mu       sync.RWMutex
	registry = map[string]func() Scheduler{}
)

// Register installs a scheduler factory under its name. Each heuristic
// package registers itself in an init function; Register panics on a
// duplicate name, which is always a programming error.
func Register(name string, factory func() Scheduler) {
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("heuristics: duplicate registration of %q", name))
	}
	registry[name] = factory
}

// New returns a fresh scheduler instance by name.
func New(name string) (Scheduler, error) {
	mu.RLock()
	factory, ok := registry[name]
	mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("heuristics: unknown scheduler %q (have %v)", name, Names())
	}
	return factory(), nil
}

// Names returns the registered scheduler names, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry { //lint:sorted
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// PaperOrder is the column order used in every table of the paper.
var PaperOrder = []string{"CLANS", "DSC", "MCP", "MH", "HU"}

// All returns fresh instances of the five heuristics in the paper's
// column order. It panics if any of them is not linked in (the harness
// imports all five packages).
func All() []Scheduler {
	out := make([]Scheduler, 0, len(PaperOrder))
	for _, n := range PaperOrder {
		s, err := New(n)
		if err != nil {
			panic("heuristics: " + err.Error())
		}
		out = append(out, s)
	}
	return out
}
