package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/heuristics/mcp"
	"schedcomp/internal/heuristics/schedtest"
	"schedcomp/internal/obs"
	"schedcomp/internal/sched"
	"schedcomp/internal/schedcache"
	"schedcomp/internal/serve"
)

// newDisabledRegistry returns a registry that drops all observations,
// the state a production server boots in before -metrics handling (or
// a misconfiguration) enables it.
func newDisabledRegistry() *obs.Registry { return obs.NewRegistry() }

// waitForQueueFull probes until direct admission sheds. An admitted
// probe waits out a short deadline (its queued task then keeps the
// slot occupied until the workers unblock), so the probe loop always
// converges on ErrQueueFull while the workers stay parked.
func waitForQueueFull(t *testing.T, p *serve.Pipeline) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, err := p.Schedule(ctx, mcp.New(), tinyGraph())
		cancel()
		if errors.Is(err, serve.ErrQueueFull) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
}

func newCachedPipeline(t *testing.T, cfg serve.Config) *serve.Pipeline {
	t.Helper()
	if cfg.Cache == nil {
		cfg.Cache = schedcache.New(schedcache.Config{})
	}
	p, _ := newTestPipeline(t, cfg)
	return p
}

// permutedCopy relabels g's nodes with a random permutation — the same
// graph content under different numbering and a different name.
func permutedCopy(rng *rand.Rand, g *dag.Graph) *dag.Graph {
	n := g.NumNodes()
	perm := rng.Perm(n)
	weights := make([]int64, n)
	for v := 0; v < n; v++ {
		weights[perm[v]] = g.Weight(dag.NodeID(v))
	}
	h := dag.New("permuted-twin")
	for _, w := range weights {
		h.AddNode(w)
	}
	for _, e := range g.Edges() {
		h.MustAddEdge(dag.NodeID(perm[e.From]), dag.NodeID(perm[e.To]), e.Weight)
	}
	return h
}

// scheduleJSON renders the schedule parts a client sees (assignments,
// processor count, makespan) for byte comparison.
func scheduleJSON(t *testing.T, s *sched.Schedule) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		ByNode   []sched.Assignment
		NumProcs int
		Makespan int64
	}{s.ByNode, s.NumProcs, s.Makespan})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestScheduleCachedHitIsByteIdentical(t *testing.T) {
	p := newCachedPipeline(t, serve.Config{Workers: 2, QueueDepth: 4})
	g := schedtest.RandomDAG(rand.New(rand.NewSource(7)), 24, 0.2)

	first, st, err := p.ScheduleCached(context.Background(), mcp.New(), g)
	if err != nil {
		t.Fatal(err)
	}
	if st != serve.CacheMiss {
		t.Fatalf("first request status %q, want miss", st)
	}
	if err := first.Validate(); err != nil {
		t.Fatalf("miss schedule invalid: %v", err)
	}

	second, st, err := p.ScheduleCached(context.Background(), mcp.New(), g)
	if err != nil {
		t.Fatal(err)
	}
	if st != serve.CacheHit {
		t.Fatalf("second request status %q, want hit", st)
	}
	if !bytes.Equal(scheduleJSON(t, first), scheduleJSON(t, second)) {
		t.Fatal("hit is not byte-identical to the miss")
	}
}

func TestScheduleCachedHitsAcrossRelabeling(t *testing.T) {
	p := newCachedPipeline(t, serve.Config{Workers: 2, QueueDepth: 4})
	rng := rand.New(rand.NewSource(8))
	g := schedtest.RandomDAG(rng, 20, 0.25)

	base, st, err := p.ScheduleCached(context.Background(), mcp.New(), g)
	if err != nil || st != serve.CacheMiss {
		t.Fatalf("seed: status %q err %v", st, err)
	}
	for i := 0; i < 3; i++ {
		twin := permutedCopy(rng, g)
		got, st, err := p.ScheduleCached(context.Background(), mcp.New(), twin)
		if err != nil {
			t.Fatal(err)
		}
		if st != serve.CacheHit {
			t.Fatalf("relabeled twin %d status %q, want hit", i, st)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("remapped schedule invalid for twin %d: %v", i, err)
		}
		if got.Makespan != base.Makespan || got.NumProcs != base.NumProcs {
			t.Fatalf("twin %d got makespan %d/%d procs, base %d/%d",
				i, got.Makespan, got.NumProcs, base.Makespan, base.NumProcs)
		}
		if got.Graph != twin {
			t.Fatal("remapped schedule does not point at the requesting graph")
		}
	}
}

func TestScheduleCachedMissIsConsistentAcrossLabelings(t *testing.T) {
	// Two pipelines with separate caches, fed the same graph under
	// different labelings: both MISS, and the canonical-clone contract
	// must make the schedules agree (same makespan and processor
	// count, assignments equal through the relabeling).
	rng := rand.New(rand.NewSource(9))
	g := schedtest.RandomDAG(rng, 24, 0.2)
	twin := permutedCopy(rng, g)

	p1 := newCachedPipeline(t, serve.Config{Workers: 1, QueueDepth: 2})
	p2 := newCachedPipeline(t, serve.Config{Workers: 1, QueueDepth: 2})
	s1, st1, err1 := p1.ScheduleCached(context.Background(), mcp.New(), g)
	s2, st2, err2 := p2.ScheduleCached(context.Background(), mcp.New(), twin)
	if err1 != nil || err2 != nil || st1 != serve.CacheMiss || st2 != serve.CacheMiss {
		t.Fatalf("setup: %v %v %q %q", err1, err2, st1, st2)
	}
	if s1.Makespan != s2.Makespan || s1.NumProcs != s2.NumProcs {
		t.Fatalf("isomorphic misses disagree: %d/%d vs %d/%d",
			s1.Makespan, s1.NumProcs, s2.Makespan, s2.NumProcs)
	}
}

func TestScheduleCachedHitBypassesFullQueue(t *testing.T) {
	// Jam the single worker and fill the queue, then ask for a graph
	// that is already cached: the hit must come back immediately even
	// though admission would shed it.
	cache := schedcache.New(schedcache.Config{})
	p := newCachedPipeline(t, serve.Config{Workers: 1, QueueDepth: 1, Cache: cache})
	g := schedtest.RandomDAG(rand.New(rand.NewSource(10)), 16, 0.2)

	if _, st, err := p.ScheduleCached(context.Background(), mcp.New(), g); err != nil || st != serve.CacheMiss {
		t.Fatalf("warm-up: status %q err %v", st, err)
	}

	bs := &blockSched{started: make(chan struct{}, 1), release: make(chan struct{})}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); p.Schedule(context.Background(), bs, tinyGraph()) }()
	<-bs.started // worker is parked
	go func() {
		defer wg.Done()
		p.Schedule(context.Background(), &blockSched{release: bs.release}, tinyGraph())
	}()
	defer func() { close(bs.release); wg.Wait() }()

	// Queue is now full: a direct Schedule sheds. A probe that races
	// ahead of the second submission gets admitted instead and then
	// occupies the slot itself, so give it a short deadline and keep
	// probing — either way the queue ends up full.
	waitForQueueFull(t, p)

	// ...but the cached graph still answers, fast and as a hit.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	sc, st, err := p.ScheduleCached(ctx, mcp.New(), g)
	if err != nil {
		t.Fatalf("hit path error under full queue: %v", err)
	}
	if st != serve.CacheHit {
		t.Fatalf("status %q, want hit", st)
	}
	if sc == nil || sc.Makespan <= 0 {
		t.Fatal("hit returned no schedule")
	}
}

func TestScheduleBatchCachedStatuses(t *testing.T) {
	p := newCachedPipeline(t, serve.Config{Workers: 2, QueueDepth: 4})
	rng := rand.New(rand.NewSource(11))
	a := schedtest.RandomDAG(rng, 14, 0.2)
	b := schedtest.RandomDAG(rng, 18, 0.25)
	graphs := []*dag.Graph{a, b, permutedCopy(rng, a), a, permutedCopy(rng, b)}

	var mu sync.Mutex
	results := make([]serve.Result, 0, len(graphs))
	err := p.ScheduleBatch(context.Background(),
		func() heuristics.Scheduler { return mcp.New() },
		graphs,
		func(r serve.Result) error {
			mu.Lock()
			results = append(results, r)
			mu.Unlock()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(graphs) {
		t.Fatalf("%d results for %d graphs", len(results), len(graphs))
	}
	hits := 0
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result %d carries index %d", i, r.Index)
		}
		if r.Err != nil {
			t.Fatalf("item %d failed: %v", i, r.Err)
		}
		if err := r.Schedule.Validate(); err != nil {
			t.Fatalf("item %d schedule invalid: %v", i, err)
		}
		switch r.Cache {
		case serve.CacheHit:
			hits++
		case serve.CacheMiss:
		default:
			t.Fatalf("item %d has status %q", i, r.Cache)
		}
	}
	// a and b each computed once; the twins and the repeat hit (or
	// coalesced, which also reports as a hit).
	if hits != 3 {
		t.Fatalf("%d hits, want 3", hits)
	}
}

func TestScheduleCachedWithoutCacheIsTransparent(t *testing.T) {
	p, _ := newTestPipeline(t, serve.Config{Workers: 1, QueueDepth: 2})
	sc, st, err := p.ScheduleCached(context.Background(), mcp.New(), tinyGraph())
	if err != nil {
		t.Fatal(err)
	}
	if st != serve.CacheNone {
		t.Fatalf("status %q, want empty", st)
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Satellite regression: a freshly booted, instantly-full pipeline must
// answer with a sane positive Retry-After even though zero requests
// have completed — and even when the obs registry is disabled, which
// used to leave the histogram-based estimator blind forever.
func TestRetryAfterColdStartOnFullPipeline(t *testing.T) {
	reg := newDisabledRegistry()
	p := serve.New(serve.Config{Workers: 1, QueueDepth: 1}, reg)
	t.Cleanup(p.Close)

	bs := &blockSched{started: make(chan struct{}, 1), release: make(chan struct{})}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); p.Schedule(context.Background(), bs, tinyGraph()) }()
	<-bs.started
	go func() {
		defer wg.Done()
		p.Schedule(context.Background(), &blockSched{release: bs.release}, tinyGraph())
	}()
	defer func() { close(bs.release); wg.Wait() }()

	// Wait until the queue is actually full (the second submission —
	// or a probe — occupies the only slot).
	waitForQueueFull(t, p)
	ra := p.RetryAfter()
	if ra < time.Second || ra > 30*time.Second {
		t.Fatalf("cold-start RetryAfter = %v, want within [1s, 30s]", ra)
	}
}

// Satellite regression: the estimate must keep working when the obs
// registry is disabled (histograms drop observations then; the
// pipeline's own ledger must not).
func TestRetryAfterSurvivesDisabledRegistry(t *testing.T) {
	reg := newDisabledRegistry()
	p := serve.New(serve.Config{Workers: 1, QueueDepth: 64}, reg)
	t.Cleanup(p.Close)
	for i := 0; i < 3; i++ {
		if _, err := p.Schedule(context.Background(), mcp.New(), tinyGraph()); err != nil {
			t.Fatal(err)
		}
	}
	ra := p.RetryAfter()
	if ra < time.Second || ra > 30*time.Second {
		t.Fatalf("RetryAfter = %v, want within [1s, 30s]", ra)
	}
}
