package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"slices"
	"sync"
	"time"

	"schedcomp/internal/core"
	"schedcomp/internal/corpus"
	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/obs"
	"schedcomp/internal/sched"
)

// corpusSeed is the corpus the repository's golden schedule hashes use
// (BENCH_schedbench.json). The workload seed orders the 60 sets; the
// graphs stay those of the reference, so every evaluated set can be
// checked against corpus_ref.json.
const corpusSeed = 1994

func corpusSpec() corpus.Spec {
	s := corpus.PaperSpec(corpusSeed)
	s.Workers = workers
	return s
}

// corpusRef holds, per set and heuristic, a digest of every schedule
// the heuristic produced on the set's graphs. Regenerate it with
// -write-corpus-ref when a change to a heuristic's output is intended.
//
//go:embed corpus_ref.json
var corpusRefJSON []byte

type corpusRef struct {
	Spec       corpus.Spec `json:"spec"`
	Heuristics []string    `json:"heuristics"`
	Sets       [][]string  `json:"sets"` // [set][heuristic] digest
}

// recorder wraps a heuristic inside core.Evaluate. It digests every
// placement and, for the first and last heuristic of the portfolio,
// records when the graph's evaluation started and when its last
// placement was produced. Each Evaluate worker owns its recorders.
type recorder struct {
	inner      heuristics.ContextScheduler
	name       string
	first      bool
	last       bool
	digests    map[*dag.Graph]uint64
	start, end map[*dag.Graph]time.Time
}

func (r *recorder) Name() string { return r.name }

func (r *recorder) Schedule(g *dag.Graph) (*sched.Placement, error) {
	return r.ScheduleContext(context.Background(), g)
}

func (r *recorder) ScheduleContext(ctx context.Context, g *dag.Graph) (*sched.Placement, error) {
	if r.first {
		r.start[g] = time.Now()
	}
	pl, err := r.inner.ScheduleContext(ctx, g)
	if r.last {
		r.end[g] = time.Now()
	}
	if err == nil {
		r.digests[g] = placementDigest(pl)
	}
	return pl, err
}

// placementDigest hashes which processor runs each task and the task
// order on every processor; with the graph, that fixes the schedule.
func placementDigest(pl *sched.Placement) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(x int) {
		for i := range b {
			b[i] = byte(uint64(x) >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, p := range pl.Proc {
		word(p)
	}
	for _, order := range pl.Order {
		word(-1)
		for _, v := range order {
			word(int(v))
		}
	}
	return h.Sum64()
}

// portfolio builds core.Evaluate factories for every registered
// heuristic and keeps the recorders they hand out.
type portfolio struct {
	names []string
	mu    sync.Mutex
	recs  [][]*recorder // [heuristic] recorders handed out
}

func newPortfolio() *portfolio {
	names := heuristics.Names()
	return &portfolio{names: names, recs: make([][]*recorder, len(names))}
}

func (p *portfolio) factories() []func() heuristics.Scheduler {
	fs := make([]func() heuristics.Scheduler, len(p.names))
	for i, name := range p.names {
		i, name := i, name
		fs[i] = func() heuristics.Scheduler {
			s, err := heuristics.New(name)
			if err != nil {
				panic(err) // the name came from heuristics.Names
			}
			r := &recorder{inner: s.(heuristics.ContextScheduler), name: name,
				first: i == 0, last: i == len(p.names)-1,
				digests: map[*dag.Graph]uint64{}, start: map[*dag.Graph]time.Time{}, end: map[*dag.Graph]time.Time{}}
			p.mu.Lock()
			p.recs[i] = append(p.recs[i], r)
			p.mu.Unlock()
			return r
		}
	}
	return fs
}

// take returns the digests and per-graph times recorded since the last
// call, and forgets the recorders.
func (p *portfolio) take() (digests []map[*dag.Graph]uint64, latency map[*dag.Graph]time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	digests = make([]map[*dag.Graph]uint64, len(p.names))
	start := map[*dag.Graph]time.Time{}
	latency = map[*dag.Graph]time.Duration{}
	for i, rs := range p.recs {
		digests[i] = map[*dag.Graph]uint64{}
		for _, r := range rs {
			for g, d := range r.digests {
				digests[i][g] = d
			}
			for g, t := range r.start {
				start[g] = t
			}
		}
	}
	for _, r := range p.recs[len(p.names)-1] {
		for g, t := range r.end {
			latency[g] = t.Sub(start[g])
		}
	}
	p.recs = make([][]*recorder, len(p.names))
	return digests, latency
}

// setDigests folds the per-graph digests of one evaluated set into one
// digest per heuristic, in graph order, with each makespan and
// processor count.
func setDigests(set corpus.Set, rec core.SetRecord, digests []map[*dag.Graph]uint64) []string {
	out := make([]string, len(digests))
	for i := range digests {
		h := fnv.New64a()
		for gi, g := range set.Graphs {
			m := rec.Graphs[gi].ByHeur[i]
			fmt.Fprintf(h, "%x %d %d;", digests[i][g], m.ParallelTime, m.Procs)
		}
		out[i] = fmt.Sprintf("%016x", h.Sum64())
	}
	return out
}

// evaluateSet runs core.Evaluate on one set of c.
func evaluateSet(c *corpus.Corpus, si int, p *portfolio) (*core.Evaluation, error) {
	one := &corpus.Corpus{Spec: c.Spec, Sets: c.Sets[si : si+1]}
	return core.Evaluate(one, core.Options{Workers: workers, Factories: p.factories()})
}

// runCorpus runs the corpus workload.
func runCorpus(o options) (*outcome, error) {
	var ref corpusRef
	if err := json.Unmarshal(corpusRefJSON, &ref); err != nil {
		return nil, fmt.Errorf("corpus_ref.json: %w", err)
	}
	if ref.Spec.Seed != corpusSeed || len(ref.Sets) != len(corpus.Classes()) {
		return nil, fmt.Errorf("corpus_ref.json does not describe the seed-%d paper corpus", corpusSeed)
	}
	n := setupRuns
	if o.trace {
		n = 1
	}
	var setups []float64
	var c *corpus.Corpus
	for i := 0; i < n; i++ {
		t0 := time.Now()
		var err error
		if c, err = corpus.Generate(corpusSpec()); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	p := newPortfolio()
	if !slices.Equal(p.names, ref.Heuristics) {
		return nil, fmt.Errorf("registered heuristics %v, corpus_ref.json has %v", p.names, ref.Heuristics)
	}
	if o.trace {
		obs.Default().SetEnabled(true)
	}
	qwait := obs.Default().Histogram("core_eval_queue_wait_seconds",
		"Time a worker spends waiting to receive its next graph.", obs.DefTimeBuckets)

	// The run evaluates whole passes over the 60 sets, each in its own
	// seeded order, and starts a pass only while it is expected to end
	// within the measured seconds; every pass does the same work, so
	// their rates are comparable.
	rng := rand.New(rand.NewSource(o.seed))
	type evaluated struct {
		set     int
		ev      *core.Evaluation
		digests []map[*dag.Graph]uint64
	}
	out := &outcome{}
	var passRates, passTimes, gaps []float64
	sets, graphs, proven := 0, 0, 0
	// check compares a pass's schedule digests with the reference and
	// adds up its quality, after the pass's timing ended.
	check := func(pass []evaluated) {
		for _, e := range pass {
			set := c.Sets[e.set]
			for i, d := range setDigests(set, e.ev.Sets[0], e.digests) {
				if d != ref.Sets[e.set][i] {
					fmt.Printf("set %d: %s schedules digest %s, reference %s\n", e.set, p.names[i], d, ref.Sets[e.set][i])
					out.failed += len(set.Graphs)
					out.wrong += len(set.Graphs)
				}
			}
			for gi, rec := range e.ev.Sets[0].Graphs {
				q := quality{makespan: rec.Best, lowerBound: criticalPathNoComm(set.Graphs[gi])}
				gaps = append(gaps, q.gapPct())
				if q.proven() {
					proven++
				}
				graphs++
			}
			sets++
		}
	}
	// perGraph holds each graph's evaluation times, one per pass. The
	// latency quantiles are taken over the graphs' medians, so a pause
	// that slows one pass of a graph does not move them.
	perGraph := map[*dag.Graph][]float64{}
	budget := (time.Duration(o.seconds) * time.Second).Seconds()
	start := time.Now()
	for len(passTimes) == 0 || time.Since(start).Seconds()+mean(passTimes) <= budget {
		var pass []evaluated
		t0 := time.Now()
		schedules := 0
		for _, si := range rng.Perm(len(c.Sets)) {
			ev, err := evaluateSet(c, si, p)
			digests, latency := p.take()
			n := len(c.Sets[si].Graphs) * len(p.names)
			out.attempted += n
			if err != nil {
				fmt.Printf("set %d: %v\n", si, err)
				out.failed += n
				out.wrong += n
				continue
			}
			schedules += n
			pass = append(pass, evaluated{si, ev, digests})
			for g, d := range latency {
				perGraph[g] = append(perGraph[g], float64(d)/float64(time.Millisecond))
			}
		}
		d := time.Since(t0).Seconds()
		passTimes = append(passTimes, d)
		passRates = append(passRates, float64(schedules)/d)
		check(pass)
	}
	wall := time.Since(start)
	obs.Default().SetEnabled(false)

	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	fmt.Printf("== corpus: %d passes, %d sets (%d graphs x %d heuristics) in %.3fs; schedules/s per pass %.1f; set-up runs %v s\n",
		len(passRates), sets, graphs, len(p.names), wall.Seconds(), passRates, setups)

	if o.trace {
		return out, traceCorpus(o, c, setups[0], qwait, out)
	}
	out.set("setup_s", "s", median(setups))
	out.set("schedules_per_s", "1/s", median(passRates))
	out.set("served_per_s", "1/s", median(passRates)/float64(len(p.names)))
	var lat []float64
	for _, ds := range perGraph {
		lat = append(lat, median(ds))
	}
	out.set("latency_p50_ms", "ms", quantile(lat, 0.50))
	out.set("latency_p99_ms", "ms", quantile(lat, 0.99))
	out.set("best_gap_pct", "%", mean(gaps))
	out.set("best_proven_share", "ratio", float64(proven)/float64(max(1, graphs)))
	out.set("peak_rss_mb", "MB", rss)
	return out, nil
}

// writeCorpusRef evaluates every set of the reference corpus once and
// writes the per-set schedule digests to path.
func writeCorpusRef(path string) error {
	c, err := corpus.Generate(corpusSpec())
	if err != nil {
		return err
	}
	p := newPortfolio()
	ref := corpusRef{Spec: c.Spec, Heuristics: p.names}
	ref.Spec.Workers = 0
	for si := range c.Sets {
		ev, err := evaluateSet(c, si, p)
		digests, _ := p.take()
		if err != nil {
			return fmt.Errorf("set %d: %w", si, err)
		}
		ref.Sets = append(ref.Sets, setDigests(c.Sets[si], ev.Sets[0], digests))
	}
	// One line per set keeps the file diffable set by set.
	var b bytes.Buffer
	head, err := json.Marshal(struct {
		Spec       corpus.Spec `json:"spec"`
		Heuristics []string    `json:"heuristics"`
	}{ref.Spec, ref.Heuristics})
	if err != nil {
		return err
	}
	b.Write(head[:len(head)-1])
	b.WriteString(",\n\"sets\": [\n")
	for i, set := range ref.Sets {
		line, err := json.Marshal(set)
		if err != nil {
			return err
		}
		b.Write(line)
		if i < len(ref.Sets)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}
