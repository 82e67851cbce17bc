package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"schedcomp/internal/dag"
)

// workload is one benchmark workload. The served fields are unused by
// corpus.
type workload struct {
	name string
	// query is the /schedule query string; heuristic is the name the
	// replies must carry.
	query, heuristic string
	// dup is the share of requests that are identical, renamed or
	// node-relabeled copies of a pool of `pool` graphs.
	dup  float64
	pool int
	// small makes every other unique graph a 9–13-node PDG.
	small bool
	// capacity bounds the closed-loop phase: that many requests per
	// closed-loop second are generated, and the phase ends early if the
	// server serves them all.
	capacity float64
	// rate is the open-loop request rate, in requests per second.
	rate float64
	// fill is the number of extra unique graphs sent before measuring,
	// so the measured phases start with a full cache.
	fill int
}

// The open-loop rates are about half the closed-loop capacity measured
// on the commit that introduced the benchmark (2 cores).
var allWorkloads = []workload{
	{name: "corpus"},
	{name: "serve-unique", query: "heuristic=MCP", heuristic: "MCP",
		capacity: 2000, rate: 500, fill: cacheEntries},
	{name: "serve-repeat", query: "heuristic=MCP", heuristic: "MCP",
		dup: 0.9, pool: 256, capacity: 2500, rate: 600},
	{name: "serve-best", query: "quality=best&budget=" + bestBudget.String(), heuristic: "quality:best",
		small: true, capacity: 300, rate: 60},
}

// cacheEntries is schedserve's default cache capacity.
const cacheEntries = 4096

// bestBudget is serve-best's refinement budget per request.
const bestBudget = 20 * time.Millisecond

func (w workload) served() bool { return w.query != "" }

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// phases splits the measured seconds into the closed-loop phase and
// the open-loop phase, whole windows each. The open loop gets the larger
// share: its tail percentile needs the samples.
func phases(secs int) (closed, open time.Duration) {
	n := max(2, secs*int(time.Second/window))
	c := max(1, n*3/8)
	return time.Duration(c) * window, time.Duration(n-c) * window
}

// Variants of a pool graph a repeated request sends.
const poolVariants = 5 // the original, two renamed, two relabeled

// uniqueVariants is the number of content-unique graphs drawn per
// generated shape for the unique requests.
const uniqueVariants = 4

// warmRequests are sent before the measured phases, with the fill
// graphs and the repeat pool's originals, to open the connections and
// run every code path once; they are unique graphs no measured request
// repeats.
const warmRequests = 16

// buildBodies generates every request body of a served run from the
// seed: the request order, the repeat pool's variants, the unique
// graphs and the warm-up graphs.
func buildBodies(w workload, seed int64, secs int) (*bodySet, error) {
	closed, open := phases(secs)
	nClosed := int(math.Ceil(w.capacity * closed.Seconds()))
	nOpen := int(math.Ceil(w.rate*window.Seconds())) * int(open/window)
	bs := &bodySet{openStart: nClosed, pool: w.pool * poolVariants}

	// The order decides, per slot, between a pool copy and the next
	// unique graph.
	rng := rand.New(rand.NewSource(streamSeed(seed, streamOrder, 0)))
	type slot struct{ pool, variant int } // pool < 0: unique
	slots := make([]slot, nClosed+nOpen)
	nUnique := 0
	for k := range slots {
		if w.dup > 0 && rng.Float64() < w.dup {
			slots[k] = slot{rng.Intn(w.pool), rng.Intn(poolVariants)}
		} else {
			slots[k] = slot{-1, nUnique}
			nUnique++
		}
	}

	seen := map[uint64]bool{}
	source := func(stream, variants int) *uniqueSource {
		return &uniqueSource{seed: seed, stream: stream, small: w.small, variants: variants, seen: seen}
	}
	pool, err := source(streamPool, 1).generate(w.pool)
	if err != nil {
		return nil, err
	}
	unique, err := source(streamUnique, uniqueVariants).generate(nUnique)
	if err != nil {
		return nil, err
	}
	warm, err := source(streamWarm, uniqueVariants).generate(warmRequests + w.fill)
	if err != nil {
		return nil, err
	}
	bs.graphs = len(pool) + len(unique) + len(warm)

	var graphs []*dag.Graph
	for p, g := range pool {
		vr := rand.New(rand.NewSource(streamSeed(seed, streamVariant, p)))
		g.SetName(fmt.Sprintf("pool-%d", p))
		graphs = append(graphs, g)
		for i := 1; i <= 2; i++ {
			c := g.Clone()
			c.SetName(fmt.Sprintf("pool-%d-copy-%d", p, i))
			graphs = append(graphs, c)
		}
		for i := 1; i <= 2; i++ {
			c := relabeled(g, vr)
			c.SetName(fmt.Sprintf("pool-%d-perm-%d", p, i))
			graphs = append(graphs, c)
		}
	}
	for j, g := range unique {
		g.SetName(fmt.Sprintf("unique-%d", j))
	}
	for j, g := range warm {
		g.SetName(fmt.Sprintf("warm-%d", j))
	}
	uniqueBase := len(graphs)
	graphs = append(graphs, unique...)
	warmBase := len(graphs)
	graphs = append(graphs, warm...)
	if bs.bodies, err = encodeAll(graphs); err != nil {
		return nil, err
	}

	bs.order = make([]int, len(slots))
	for k, s := range slots {
		if s.pool < 0 {
			bs.order[k] = uniqueBase + s.variant
		} else {
			bs.order[k] = s.pool*poolVariants + s.variant
		}
	}
	for p := range pool {
		bs.warm = append(bs.warm, p*poolVariants)
	}
	for j := range warm {
		bs.warm = append(bs.warm, warmBase+j)
	}
	return bs, nil
}

// setupRuns is how often set-up is repeated in an untraced run;
// setup_s is the median.
const setupRuns = 3

// window is the length of one measurement window. Each phase is a run
// of windows; a window's replies are checked, and the client heap is
// collected, in a pause before the next window starts, so neither
// competes with the server for the cores while it is measured.
const window = time.Second

// servedRun is everything one served run measured.
type servedRun struct {
	setups  []float64
	genTime time.Duration
	graphs  int
	warm    int // warm-up requests sent
	closed  []reply
	// served and computed are each closed-loop window's rate of
	// successful replies and of cache misses, per second.
	served, computed []float64
	open             []reply
	// p99 is each open-loop window's 99th-percentile latency, in ms.
	p99       []float64
	scrapes   [3]series // before the closed phase, between, after the open phase
	peakRSS   float64
	checks    checkStats
	exhausted bool
}

// checkStats aggregates the correctness checks of one run.
type checkStats struct {
	ok, refused, wrong int
	firstErr           error
	q                  []quality
}

// add checks rs on one goroutine per checker, reply i on checker i mod
// len(cs), and drops the checked response bodies.
func (st *checkStats) add(cs []*checker, rs []reply) {
	part := make([]checkStats, len(cs))
	var wg sync.WaitGroup
	for w := range cs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &part[w]
			for i := w; i < len(rs); i += len(cs) {
				r := &rs[i]
				if !r.ok() {
					p.refused++
					continue
				}
				q, err := cs[w].check(r.body, r.resp)
				r.resp = nil
				if err != nil {
					p.wrong++
					if p.firstErr == nil {
						p.firstErr = err
					}
					continue
				}
				p.ok++
				p.q = append(p.q, q)
			}
		}(w)
	}
	wg.Wait()
	for _, p := range part {
		st.ok += p.ok
		st.refused += p.refused
		st.wrong += p.wrong
		if st.firstErr == nil {
			st.firstErr = p.firstErr
		}
		st.q = append(st.q, p.q...)
	}
}

// runServed runs a serve-* workload against a fresh schedserve.
func runServed(o options, w workload) (*outcome, error) {
	c := newClient()
	defer c.close()
	run, srv, bs, err := setUpServed(o, w, c)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	if err := measureServed(o, w, c, srv, bs, run); err != nil {
		return nil, err
	}
	printServed(w, run, bs)

	out := &outcome{
		attempted: run.warm + len(run.closed) + len(run.open),
		failed:    run.checks.refused + run.checks.wrong,
		wrong:     run.checks.wrong,
	}
	if run.checks.firstErr != nil {
		fmt.Printf("first correctness failure: %v\n", run.checks.firstErr)
	}
	if o.trace {
		if err := traceServed(o, w, bs, run, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	var gaps []float64
	proven := 0
	for _, q := range run.checks.q {
		gaps = append(gaps, q.gapPct())
		if q.proven() {
			proven++
		}
	}
	out.set("setup_s", "s", median(run.setups))
	out.set("schedules_per_s", "1/s", median(run.computed))
	out.set("served_per_s", "1/s", median(run.served))
	out.set("latency_p50_ms", "ms", quantile(latenciesMs(run.open), 0.50))
	out.set("latency_p99_ms", "ms", quantile(latenciesMs(run.open), 0.99))
	out.set("best_gap_pct", "%", mean(gaps))
	out.set("best_proven_share", "ratio", float64(proven)/float64(max(1, len(run.checks.q))))
	out.set("peak_rss_mb", "MB", run.peakRSS)
	return out, nil
}

// setUpServed starts the server and generates the bodies, setupRuns
// times in an untraced run, keeping the last server and body set.
func setUpServed(o options, w workload, c *client) (*servedRun, *server, *bodySet, error) {
	run := &servedRun{}
	n := setupRuns
	if o.trace {
		n = 1
	}
	var srv *server
	var bs *bodySet
	for i := 0; i < n; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		s, err := startServer(o.server, c)
		if err != nil {
			return nil, nil, nil, err
		}
		srv = s
		t1 := time.Now()
		if bs, err = buildBodies(w, o.seed, o.seconds); err != nil {
			srv.stop()
			return nil, nil, nil, err
		}
		run.genTime = time.Since(t1)
		run.setups = append(run.setups, time.Since(t0).Seconds())
	}
	run.graphs = bs.graphs
	return run, srv, bs, nil
}

// measureServed runs the warm-up, the closed-loop and the open-loop
// phase, scraping /metrics around them and checking every reply after
// the window that produced it.
func measureServed(o options, w workload, c *client, srv *server, bs *bodySet, run *servedRun) error {
	url := srv.base + "/schedule?" + w.query
	chks := make([]*checker, workers)
	for i := range chks {
		chks[i] = newChecker(bs.bodies, bs.pool, w.heuristic, strings.Contains(w.query, "quality=best"))
	}
	// pause checks a window's replies on every core and collects the
	// client heap. The windows themselves run the client on one core:
	// its goroutines mostly wait on the network, and a second client
	// thread only contends with the server for the cores.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	pause := func(st *checkStats, rs []reply) {
		runtime.GOMAXPROCS(workers)
		st.add(chks, rs)
		for _, ch := range chks {
			ch.reset()
		}
		runtime.GC()
		runtime.GOMAXPROCS(1)
	}

	// Warm-up replies are checked like measured ones, but time nothing.
	warm, _ := closedLoop(c, url, bs.bodies, bs.warm, time.Hour)
	run.warm = len(warm)
	pause(&run.checks, warm)

	closedDur, openDur := phases(o.seconds)
	var err error
	if run.scrapes[0], err = srv.scrape(c); err != nil {
		return err
	}
	next := 0
	for i := 0; i < int(closedDur/window) && next < bs.openStart; i++ {
		rs, wall := closedLoop(c, url, bs.bodies, bs.order[next:bs.openStart], window)
		next += len(rs)
		ok, miss := 0, 0
		for _, r := range rs {
			if r.ok() {
				ok++
				if r.cache == "miss" {
					miss++
				}
			}
		}
		run.served = append(run.served, float64(ok)/wall.Seconds())
		run.computed = append(run.computed, float64(miss)/wall.Seconds())
		pause(&run.checks, rs)
		run.closed = append(run.closed, rs...)
	}
	run.exhausted = next == bs.openStart
	if run.scrapes[1], err = srv.scrape(c); err != nil {
		return err
	}

	windows := int(openDur / window)
	per := (len(bs.order) - bs.openStart) / windows
	for i := 0; i < windows; i++ {
		from := bs.openStart + i*per
		rs := openLoop(c, url, bs.bodies, bs.order[from:from+per], w.rate)
		run.p99 = append(run.p99, quantile(latenciesMs(rs), 0.99))
		pause(&run.checks, rs)
		run.open = append(run.open, rs...)
	}
	if run.scrapes[2], err = srv.scrape(c); err != nil {
		return err
	}
	run.peakRSS, err = peakRSSMB(srv.pid())
	return err
}

// latenciesMs lists the replies' latencies in milliseconds.
func latenciesMs(rs []reply) []float64 {
	out := make([]float64, len(rs))
	for i := range rs {
		out[i] = float64(rs[i].latency()) / float64(time.Millisecond)
	}
	return out
}

// watched are the /metrics counters whose per-phase deltas a served
// run prints.
var watched = []string{
	"schedcache_hits_total", "schedcache_misses_total", "schedcache_coalesced_total",
	"schedcache_evictions_total", "serve_shed_total", "serve_cancelled_total",
	"serve_queue_wait_seconds_count", "serve_queue_wait_seconds_sum",
	"serve_request_seconds_count", "serve_request_seconds_sum",
	"anytime_generations_total", "anytime_proven_total",
}

func printServed(w workload, run *servedRun, bs *bodySet) {
	fmt.Printf("== %s: %d graphs generated in %.3fs; set-up runs %v s\n", w.name, run.graphs, run.genTime.Seconds(), run.setups)
	fmt.Printf("closed loop: %d requests in %d windows of %v (%d connections), served/s per window %.1f",
		len(run.closed), len(run.served), window, workers, run.served)
	if run.exhausted {
		fmt.Printf(", all %d generated slots used: raise capacity", bs.openStart)
	}
	fmt.Println()
	var late []float64
	for _, r := range run.open {
		late = append(late, float64(r.sent-r.due)/float64(time.Millisecond))
	}
	maxLate := 0.0
	if len(late) > 0 {
		sort.Float64s(late)
		maxLate = late[len(late)-1]
	}
	fmt.Printf("open loop: %d requests at %.0f/s; generator late p50 %.3fms p99 %.3fms max %.3fms; p99 per window %.2f ms\n",
		len(run.open), w.rate, quantile(late, 0.5), quantile(late, 0.99), maxLate, run.p99)
	fmt.Printf("checked: %d ok, %d refused or failed, %d wrong\n", run.checks.ok, run.checks.refused, run.checks.wrong)
	fmt.Println("/metrics deltas (closed, open):")
	for _, name := range watched {
		d1 := delta(run.scrapes[0], run.scrapes[1], name)
		d2 := delta(run.scrapes[1], run.scrapes[2], name)
		if strings.HasPrefix(name, "serve_request_seconds") {
			d1 = delta(run.scrapes[0], run.scrapes[1], name, `path="/schedule"`)
			d2 = delta(run.scrapes[1], run.scrapes[2], name, `path="/schedule"`)
		}
		fmt.Printf("  %-34s %14.6g %14.6g\n", name, d1, d2)
	}
}
