package serve_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/heuristics/schedtest"
	"schedcomp/internal/obs"
	"schedcomp/internal/sched"
	"schedcomp/internal/schedcache"
	"schedcomp/internal/serve"

	_ "schedcomp/internal/heuristics/dsc"
	_ "schedcomp/internal/heuristics/etf"
	_ "schedcomp/internal/heuristics/hu"
	_ "schedcomp/internal/heuristics/lc"
	_ "schedcomp/internal/heuristics/mcp"
)

// soakDuration caps the hammer phase. The whole test (hammer + drain)
// stays well under 30s even with the race detector on.
func soakDuration(t *testing.T) time.Duration {
	if testing.Short() {
		return 500 * time.Millisecond
	}
	return 3 * time.Second
}

// TestSoakPipeline hammers the pipeline from concurrent clients with a
// mix of single and batch requests, random client-side cancellations,
// and deliberate queue-full bursts, then checks that nothing leaked:
// every goroutine is gone after Close and the obs counters reconcile
// exactly (submitted = admitted + shed, admitted = completed + failed
// + cancelled). It runs once without a cache and once with one, so the
// cached single path and the cached batch fan-out soak too.
func TestSoakPipeline(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cache *schedcache.Cache
	}{
		{"uncached", nil},
		{"cached", schedcache.New(schedcache.Config{})},
	} {
		t.Run(tc.name, func(t *testing.T) { soakPipeline(t, tc.cache) })
	}
}

func soakPipeline(t *testing.T, cache *schedcache.Cache) {
	baseline := runtime.NumGoroutine()

	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	p := serve.New(serve.Config{Workers: 4, QueueDepth: 8, Cache: cache}, reg)

	soakNames := []string{"MCP", "ETF", "HU", "LC", "DSC"}
	deadline := time.Now().Add(soakDuration(t))
	var cancellations, sheds, schedules atomic.Uint64

	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadline) {
				name := soakNames[rng.Intn(len(soakNames))]
				s, err := heuristics.New(name)
				if err != nil {
					t.Error(err)
					return
				}
				g := schedtest.RandomDAG(rng, 5+rng.Intn(60), 0.15)

				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if rng.Intn(5) == 0 {
					// Client abandons quickly: deadlines from 0 (already
					// expired) to 2ms, often mid-schedule.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(3))*time.Millisecond)
				}

				switch rng.Intn(4) {
				case 0: // batch of a few graphs
					graphs := make([]*dag.Graph, 2+rng.Intn(4))
					for i := range graphs {
						graphs[i] = schedtest.RandomDAG(rng, 5+rng.Intn(40), 0.15)
					}
					err = p.ScheduleBatch(ctx,
						func() heuristics.Scheduler { s, _ := heuristics.New(name); return s },
						graphs,
						func(r serve.Result) error {
							soakCheck(t, r.Schedule, r.Err, &cancellations, &sheds, &schedules)
							return nil
						})
					if err != nil {
						t.Errorf("batch: %v", err)
					}
				case 1: // burst of singles to slam the queue full
					var burst sync.WaitGroup
					for i := 0; i < 12; i++ {
						burst.Add(1)
						go func() {
							defer burst.Done()
							sc, _, err := p.ScheduleCached(ctx, s, g)
							soakCheck(t, sc, err, &cancellations, &sheds, &schedules)
						}()
					}
					burst.Wait()
				case 2: // plain single request, never cached
					sc, err := p.Schedule(ctx, s, g)
					soakCheck(t, sc, err, &cancellations, &sheds, &schedules)
				default: // single request through the cache, if any
					sc, _, err := p.ScheduleCached(ctx, s, g)
					soakCheck(t, sc, err, &cancellations, &sheds, &schedules)
				}
				cancel()
			}
		}(int64(c) + 1)
	}
	wg.Wait()
	p.Close()

	if schedules.Load() == 0 {
		t.Error("soak produced no successful schedules")
	}
	t.Logf("soak: %d schedules, %d sheds, %d cancellations",
		schedules.Load(), sheds.Load(), cancellations.Load())

	// Counter reconciliation: everything offered was either shed or
	// admitted, and everything admitted reached exactly one terminal
	// counter once the pipeline drained.
	submitted := reg.Counter("serve_submitted_total", "").Value()
	admitted := reg.Counter("serve_admitted_total", "").Value()
	shed := reg.Counter("serve_shed_total", "").Value()
	completed := reg.Counter("serve_completed_total", "").Value()
	failed := reg.Counter("serve_failed_total", "").Value()
	cancelled := reg.Counter("serve_cancelled_total", "").Value()
	if submitted != admitted+shed {
		t.Errorf("submitted (%d) != admitted (%d) + shed (%d)", submitted, admitted, shed)
	}
	if admitted != completed+failed+cancelled {
		t.Errorf("admitted (%d) != completed (%d) + failed (%d) + cancelled (%d)",
			admitted, completed, failed, cancelled)
	}
	if failed != 0 {
		t.Errorf("failed = %d on well-formed graphs, want 0", failed)
	}
	if depth := reg.Gauge("serve_queue_depth", "").Value(); depth != 0 {
		t.Errorf("queue depth after drain = %d, want 0", depth)
	}

	// Goroutine leak check: abandoned requests and closed workers must
	// all unwind. Poll briefly — runtime bookkeeping lags Close.
	settle := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(settle) {
			t.Fatalf("goroutines: %d at start, %d after Close — leak", baseline, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// soakCheck classifies one result: success must validate, and the only
// acceptable errors under soak are sheds and client cancellations.
func soakCheck(t *testing.T, sc *sched.Schedule, err error,
	cancellations, sheds, schedules *atomic.Uint64) {
	switch {
	case err == nil:
		schedules.Add(1)
		if verr := sc.Validate(); verr != nil {
			t.Errorf("invalid schedule under load: %v", verr)
		}
	case errors.Is(err, serve.ErrQueueFull):
		sheds.Add(1)
	case heuristics.IsCancellation(err):
		cancellations.Add(1)
	default:
		t.Errorf("unexpected error under soak: %v", err)
	}
}
