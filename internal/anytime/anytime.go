// Package anytime is the service's quality tier: an interruptible
// schedule optimizer that always has an answer and always knows how
// far that answer can still be from optimal.
//
// It seeds a genetic-algorithm population from every registered
// heuristic's schedule (the portfolio — the best heuristic incumbent
// is the floor, never regressed), evolves it with precedence-
// preserving order crossover and placement/order mutations decoded
// through the greedy sched builder, and interleaves an incremental
// opt.Probe branch-and-bound whose live lower bound certifies an
// optimality gap. Every result therefore carries best-so-far makespan
// plus a proven bound: gap == 0 means the schedule is proven optimal.
//
// Two budget modes: Options.Budget (wall clock, for serving — the
// default 50ms) and Options.Generations (an exact generation count,
// for reproducing byte-identical trajectories in tests). The random
// stream is seeded from the graph structure like the RAND control
// heuristic, so results are a deterministic function of (graph, seed,
// generations).
package anytime

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/obs"
	"schedcomp/internal/opt"
	"schedcomp/internal/sched"
)

// DefaultBudget is the wall-clock budget when Options.Budget is zero.
const DefaultBudget = 50 * time.Millisecond

const (
	defaultPopulation  = 24
	defaultProbeStates = 4096
	eliteCount         = 2
)

// Options tunes one Optimize call. The zero value is a 50ms wall-clock
// run with default population and probe interleave.
type Options struct {
	// Budget is the wall-clock budget; DefaultBudget when zero.
	// Ignored when Generations > 0.
	Budget time.Duration
	// Generations, when positive, runs exactly this many generations
	// instead of a wall-clock budget: the deterministic mode.
	Generations int
	// Seed perturbs the structure-derived random stream.
	Seed int64
	// Population is the GA population size (default 24; never below
	// the number of seed heuristics).
	Population int
	// ProbeStates is the branch-and-bound step granted between
	// generations (default 4096).
	ProbeStates int64
	// MaxProbeTasks bounds the graphs the B&B probe attempts (default
	// opt's 14); larger graphs still run the GA, with the
	// communication-free critical path as the lower bound.
	MaxProbeTasks int
	// OnGeneration, if set, observes each completed generation: the
	// index, the best schedule so far, and the proven lower bound.
	// The schedule must be treated as read-only.
	OnGeneration func(gen int, best *sched.Schedule, lowerBound int64)
}

func (o *Options) fill() {
	if o.Budget <= 0 {
		o.Budget = DefaultBudget
	}
	if o.Population <= 0 {
		o.Population = defaultPopulation
	}
	if o.ProbeStates <= 0 {
		o.ProbeStates = defaultProbeStates
	}
}

// Result is an anytime answer: the best schedule found plus the proof
// state of how good it is.
type Result struct {
	// Schedule is the best schedule found; never worse than the best
	// seeding heuristic's.
	Schedule *sched.Schedule
	// LowerBound is a proven lower bound on the optimal makespan.
	LowerBound int64
	// Gap is Schedule.Makespan - LowerBound: the proven distance from
	// optimal. Zero means the schedule is proven optimal.
	Gap int64
	// Proven reports Gap == 0.
	Proven bool
	// Generations is the number of GA generations completed.
	Generations int
	// Improvements counts strict makespan improvements over the
	// initial heuristic incumbent (GA offspring or adopted B&B
	// witnesses).
	Improvements int
	// SeedName is the heuristic whose schedule seeded the incumbent.
	SeedName string
	// ProbeStates is the number of branch-and-bound states explored.
	ProbeStates int64
	// Elapsed is the wall-clock time the optimization took.
	Elapsed time.Duration
}

// ErrNoSeeds is returned when no registered heuristic produced a
// schedule to seed the population from.
var ErrNoSeeds = errors.New("anytime: no heuristic produced a seed schedule")

type metrics struct {
	runs         *obs.Counter
	cancelled    *obs.Counter
	proven       *obs.Counter
	generations  *obs.Counter
	improvements *obs.Counter
	gap          *obs.Histogram
	overshoot    *obs.Histogram

	seedBest sync.Map // heuristic name -> *obs.Counter
}

var (
	metOnce sync.Once
	met     *metrics
)

// gapBuckets bound the relative proven gap (gap / lower bound); the
// leading 0 bucket counts proven-optimal results exactly.
var gapBuckets = []float64{0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2}

// overshootBuckets bound relative budget overshoot ((elapsed-budget)/
// budget); the leading 0 bucket counts runs that respected the budget.
var overshootBuckets = []float64{0, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1, 2}

func getMetrics() *metrics {
	metOnce.Do(func() {
		reg := obs.Default()
		met = &metrics{
			runs: reg.Counter("anytime_runs_total",
				"Anytime optimizations completed."),
			cancelled: reg.Counter("anytime_cancelled_total",
				"Anytime optimizations abandoned on context cancellation."),
			proven: reg.Counter("anytime_proven_total",
				"Anytime optimizations that proved their schedule optimal (gap 0)."),
			generations: reg.Counter("anytime_generations_total",
				"GA generations evolved across all anytime optimizations."),
			improvements: reg.Counter("anytime_improvements_total",
				"Strict makespan improvements over the heuristic incumbent."),
			gap: reg.Histogram("anytime_gap_ratio",
				"Proven optimality gap relative to the lower bound.", gapBuckets),
			overshoot: reg.Histogram("anytime_budget_overshoot_ratio",
				"Wall-clock overshoot relative to the requested budget.", overshootBuckets),
		}
	})
	return met
}

func (m *metrics) seedBestFor(name string) *obs.Counter {
	if c, ok := m.seedBest.Load(name); ok {
		return c.(*obs.Counter)
	}
	// The label set is the bounded heuristic registry.
	c := obs.Default().Counter("anytime_seed_best_total",
		"Anytime runs whose incumbent came from this heuristic.",
		obs.L("heuristic", name))
	actual, _ := m.seedBest.LoadOrStore(name, c)
	return actual.(*obs.Counter)
}

// optimizer is the per-run state of one Optimize call. It is single-
// goroutine by design: determinism comes from one random stream and a
// fixed visit order, never from scheduling luck.
type optimizer struct {
	g     *dag.Graph
	n     int
	rng   *rand.Rand
	procs int // mutation pool: max seed processor count + 1, in [1, n]

	pop    []chromosome // sorted by makespan, stable
	best   chromosome
	bestSc *sched.Schedule

	improvements int
	pos          []int // scratch for mutateOrder
	dec          decoder
	// spare holds chromosomes dropped from the population, whose
	// slices back later offspring; taken is crossover scratch.
	spare []chromosome
	taken []bool
}

func (o *optimizer) tournament() chromosome {
	i := o.rng.Intn(len(o.pop))
	j := o.rng.Intn(len(o.pop))
	if o.pop[j].mk < o.pop[i].mk {
		return o.pop[j]
	}
	return o.pop[i]
}

// offspring derives, mutates and evaluates one child chromosome.
func (o *optimizer) offspring() (chromosome, *sched.Schedule, error) {
	pa := o.tournament()
	var child chromosome
	if k := len(o.spare); k > 0 {
		child, o.spare = o.spare[k-1], o.spare[:k-1]
	} else {
		child = chromosome{order: make([]dag.NodeID, o.n), proc: make([]int, o.n)}
	}
	if o.n >= 2 && o.rng.Intn(10) < 9 {
		pb := o.tournament()
		child = crossover(child, pa, pb, 1+o.rng.Intn(o.n-1), o.taken)
	} else {
		copy(child.order, pa.order)
		copy(child.proc, pa.proc)
	}
	if o.rng.Intn(10) < 9 {
		mutateProc(child, o.rng, o.procs)
	}
	if o.n >= 2 && o.rng.Intn(2) == 0 {
		mutateOrder(o.g, child, o.rng, o.pos)
	}
	sc, err := o.dec.decode(o.g, child)
	if err != nil {
		return chromosome{}, nil, err
	}
	child.mk = sc.Makespan
	return child, sc, nil
}

// consider adopts sc as the new best if it strictly improves.
func (o *optimizer) consider(c chromosome, sc *sched.Schedule) {
	if sc.Makespan < o.best.mk {
		o.best = c
		o.bestSc = sc
		o.improvements++
	}
}

// generation evolves one generation: elitism plus tournament-selected,
// crossed-over, mutated offspring. Cancellation and the wall-clock
// deadline (zero = none, the fixed-generation mode) are polled per
// offspring so a mid-generation expiry stops within one evaluation,
// not one generation — under CPU contention those differ by an order
// of magnitude. A deadline stop reports timedOut without committing
// the partial population; incumbent improvements already considered
// stand, so the anytime contract (return the best found) holds.
func (o *optimizer) generation(ctx context.Context, deadline time.Time) (timedOut bool, err error) {
	size := len(o.pop)
	elite := eliteCount
	if elite > size {
		elite = size
	}
	next := make([]chromosome, 0, size)
	next = append(next, o.pop[:elite]...)
	for len(next) < size {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) { //lint:sorted budget expiry stops refinement; it never alters a fixed-generation result
			return true, nil
		}
		child, sc, err := o.offspring()
		if err != nil {
			return false, err
		}
		o.consider(child, sc)
		next = append(next, child)
	}
	sort.SliceStable(next, func(i, j int) bool { return next[i].mk < next[j].mk })
	// Only the elite carried over into next; no one else holds the
	// rest of the old population's slices (o.best is read for its mk).
	o.spare = append(o.spare, o.pop[elite:]...)
	o.pop = next
	return false, nil
}

// probeChunk bounds one uninterrupted branch-and-bound slice in budget
// mode; between chunks the deadline is re-polled, so a probe step can
// overshoot the budget by at most one chunk's wall-clock even when CPU
// contention stretches per-state cost.
const probeChunk = 256

// stepProbe advances the probe by up to states, in deadline-polled
// chunks when a deadline is set (budget mode) and in one deterministic
// slice when it is not (fixed-generation mode).
func (o *optimizer) stepProbe(probe *opt.Probe, states int64, deadline time.Time) {
	if deadline.IsZero() {
		probe.Step(states)
		return
	}
	for states > 0 && !probe.Done() {
		if !time.Now().Before(deadline) { //lint:sorted budget expiry stops refinement; it never alters a fixed-generation result
			return
		}
		chunk := int64(probeChunk)
		if states < chunk {
			chunk = states
		}
		probe.Step(chunk)
		states -= chunk
	}
}

// adoptWitness folds a branch-and-bound witness into the population
// and, if it improves, the incumbent.
func (o *optimizer) adoptWitness(sc *sched.Schedule) {
	c := fromSchedule(sc)
	o.consider(c, sc)
	o.pop[len(o.pop)-1] = c
	sort.SliceStable(o.pop, func(i, j int) bool { return o.pop[i].mk < o.pop[j].mk })
}

// Optimize runs the anytime portfolio on g until the budget expires,
// the configured generations complete, or optimality is proven —
// whichever comes first — and returns the best schedule with its
// certified gap. A cancelled context returns ctx's error and no
// result; budget expiry is not an error.
func Optimize(ctx context.Context, g *dag.Graph, opts Options) (*Result, error) {
	// Wall-clock dependence is the anytime contract: the budget decides
	// when refinement stops, never which result a fixed generation count
	// produces (RequireDeterministicAnytime pins the latter).
	start := time.Now() //lint:sorted
	opts.fill()
	m := getMetrics()
	n := g.NumNodes()
	if n == 0 {
		sc, err := sched.Build(g, sched.NewPlacement(0))
		if err != nil {
			return nil, err
		}
		m.runs.Inc()
		m.proven.Inc()
		m.gap.Observe(0)
		return &Result{Schedule: sc, Proven: true, Elapsed: time.Since(start)}, nil //lint:sorted Elapsed is reporting, not an input to the search
	}
	bl, err := g.BLevelsNoComm()
	if err != nil {
		return nil, err
	}
	var lb int64
	for _, l := range bl {
		if l > lb {
			lb = l
		}
	}

	// Portfolio seeding: one chromosome per registered heuristic, in
	// sorted name order. Cancellation aborts; other failures only
	// shrink the portfolio.
	names := heuristics.Names()
	type seedRun struct {
		name string
		sc   *sched.Schedule
	}
	var seeds []seedRun
	for _, name := range names {
		s, err := heuristics.New(name)
		if err != nil {
			continue
		}
		sc, err := heuristics.RunContext(ctx, s, g)
		if err != nil {
			if heuristics.IsCancellation(err) {
				m.cancelled.Inc()
				return nil, err
			}
			continue
		}
		seeds = append(seeds, seedRun{name, sc})
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("%w (tried %d)", ErrNoSeeds, len(names))
	}

	o := &optimizer{
		g:     g,
		n:     n,
		rng:   rand.New(rand.NewSource(structSeed(g) ^ opts.Seed)),
		pos:   make([]int, n),
		taken: make([]bool, n),
	}
	seedName := ""
	for _, s := range seeds {
		c := fromSchedule(s.sc)
		if o.bestSc == nil || c.mk < o.best.mk {
			o.best, o.bestSc, seedName = c, s.sc, s.name
		}
		if s.sc.NumProcs >= o.procs {
			o.procs = s.sc.NumProcs + 1
		}
		o.pop = append(o.pop, c)
	}
	if o.procs > n {
		o.procs = n
	}
	if o.procs < 1 {
		o.procs = 1
	}
	m.seedBestFor(seedName).Inc()

	// deadline is zero in fixed-generation mode: no wall-clock polls,
	// so the deterministic twin sees identical control flow every run.
	var deadline time.Time
	if opts.Generations == 0 {
		deadline = start.Add(opts.Budget)
	}

	// Fill the population to size with mutated copies of the seeds. A
	// budget already exhausted by seeding stops here — the population
	// holds every seed, which is all the anytime floor requires.
	for i := 0; len(o.pop) < opts.Population; i++ {
		if err := ctx.Err(); err != nil {
			m.cancelled.Inc()
			return nil, err
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) { //lint:sorted budget expiry stops refinement; it never alters a fixed-generation result
			break
		}
		c := o.pop[i%len(seeds)].clone()
		mutateProc(c, o.rng, o.procs)
		if n >= 2 && o.rng.Intn(2) == 0 {
			mutateOrder(g, c, o.rng, o.pos)
		}
		sc, err := o.dec.decode(g, c)
		if err != nil {
			return nil, err
		}
		c.mk = sc.Makespan
		o.consider(c, sc)
		o.pop = append(o.pop, c)
	}
	sort.SliceStable(o.pop, func(i, j int) bool { return o.pop[i].mk < o.pop[j].mk })

	// Branch-and-bound probe, bounded-size graphs only. The GA best is
	// an externally witnessed upper bound, so Tighten lets the probe
	// prune from the start and prove optimality without re-finding the
	// incumbent.
	var probe *opt.Probe
	maxProbe := opts.MaxProbeTasks
	if maxProbe == 0 {
		maxProbe = 14
	}
	if n <= maxProbe {
		if pr, err := opt.NewProbe(g, opt.Options{MaxTasks: maxProbe}); err == nil {
			probe = pr
			probe.Tighten(o.best.mk)
		}
	}

	gens := 0
	for {
		if err := ctx.Err(); err != nil {
			m.cancelled.Inc()
			return nil, err
		}
		if o.best.mk-lb == 0 {
			break
		}
		if opts.Generations > 0 {
			if gens >= opts.Generations {
				break
			}
		} else if !time.Now().Before(deadline) { //lint:sorted budget expiry stops refinement; it never alters a fixed-generation result
			break
		}
		timedOut, err := o.generation(ctx, deadline)
		if err != nil {
			if heuristics.IsCancellation(err) {
				m.cancelled.Inc()
			}
			return nil, err
		}
		if timedOut {
			break
		}
		if probe != nil && !probe.Done() {
			probe.Tighten(o.best.mk)
			o.stepProbe(probe, opts.ProbeStates, deadline)
			if mk, ok := probe.Incumbent(); ok && mk < o.best.mk {
				sc, err := sched.Build(g, probe.IncumbentPlacement())
				if err != nil {
					return nil, err
				}
				o.adoptWitness(sc)
			}
			if l := probe.LowerBound(); l > lb {
				lb = l
			}
		}
		gens++
		if opts.OnGeneration != nil {
			opts.OnGeneration(gens-1, o.bestSc, lb)
		}
	}

	res := &Result{
		Schedule:     o.bestSc,
		LowerBound:   lb,
		Gap:          o.best.mk - lb,
		Generations:  gens,
		Improvements: o.improvements,
		SeedName:     seedName,
		Elapsed:      time.Since(start), //lint:sorted Elapsed is reporting, not an input to the search
	}
	res.Proven = res.Gap == 0
	if probe != nil {
		res.ProbeStates = probe.Explored()
	}
	m.runs.Inc()
	m.generations.Add(uint64(gens))
	m.improvements.Add(uint64(o.improvements))
	if res.Proven {
		m.proven.Inc()
	}
	if lb > 0 {
		m.gap.Observe(float64(res.Gap) / float64(lb))
	}
	if opts.Generations == 0 {
		over := time.Since(start) - opts.Budget //lint:sorted overshoot is an instrument, not an input to the search
		if over < 0 {
			over = 0
		}
		m.overshoot.Observe(float64(over) / float64(opts.Budget))
	}
	return res, nil
}
