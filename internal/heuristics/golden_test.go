package heuristics_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"testing"

	"schedcomp/internal/corpus"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/obs"
)

// goldenScheduleHashes holds one FNV-1a digest per registered heuristic
// over every schedule it produces on the golden-5 corpus (the paper's
// Table 1 classes, seed 1994, 5 graphs per class, 40–120 nodes).
var goldenScheduleHashes = []struct{ name, hash string }{
	{"CLANS", "fnv1a:24306bdaf1700a29"},
	{"DCP", "fnv1a:ff06a554c8486c8d"},
	{"DLS", "fnv1a:186a656c4734ba4b"},
	{"DSC", "fnv1a:b4eae2fad864a43d"},
	{"ETF", "fnv1a:351b6a6c0f64095e"},
	{"EZ", "fnv1a:4abe96037b61a556"},
	{"HU", "fnv1a:b38583ab14ef43fb"},
	{"LC", "fnv1a:c41a04de4a7ce244"},
	{"MCP", "fnv1a:d7548536d8324fe9"},
	{"MH", "fnv1a:cb14425484495ec3"},
	{"RAND", "fnv1a:8c1af334eb3e7d37"},
}

// scheduleHash runs s over every corpus graph through heuristics.Run
// and hashes Makespan, NumProcs, then each node's Proc, Start and
// Finish, graphs in corpus order.
func scheduleHash(t *testing.T, s heuristics.Scheduler, c *corpus.Corpus) string {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	word := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, set := range c.Sets {
		for _, g := range set.Graphs {
			sc, err := heuristics.Run(s, g)
			if err != nil {
				t.Fatalf("%s: %v", g.Name(), err)
			}
			word(sc.Makespan)
			word(int64(sc.NumProcs))
			for _, a := range sc.ByNode {
				word(int64(a.Proc))
				word(a.Start)
				word(a.Finish)
			}
		}
	}
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}

// TestGoldenScheduleHashes pins every registered heuristic's default
// configuration, schedule by schedule, on the golden-5 corpus. It runs
// the corpus once with the obs registry disabled and once enabled, so
// instrumentation cannot change a schedule either. Any behavioural
// change to a heuristic, the timing builder or the generator shows up
// here. If you change one deliberately, re-record the hashes from the
// table this test prints on mismatch and note the change in
// EXPERIMENTS.md.
func TestGoldenScheduleHashes(t *testing.T) {
	spec := corpus.PaperSpec(1994)
	spec.GraphsPerSet = 5
	c, err := corpus.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.Default()
	wasEnabled := reg.Enabled()
	t.Cleanup(func() { reg.SetEnabled(wasEnabled) })

	want := map[string]string{}
	for _, g := range goldenScheduleHashes {
		want[g.name] = g.hash
	}
	names := heuristics.Names()
	if len(names) != len(want) {
		t.Errorf("%d heuristics registered, %d golden hashes", len(names), len(want))
	}
	for _, enabled := range []bool{false, true} {
		reg.SetEnabled(enabled)
		var mu sync.Mutex
		got := map[string]string{}
		passed := t.Run(fmt.Sprintf("metrics=%v", enabled), func(t *testing.T) {
			for _, name := range names {
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					s, err := heuristics.New(name)
					if err != nil {
						t.Fatal(err)
					}
					h := scheduleHash(t, s, c)
					mu.Lock()
					got[name] = h
					mu.Unlock()
					if h != want[name] {
						t.Errorf("schedule hash %s, golden %q", h, want[name])
					}
				})
			}
		})
		if !passed {
			var b strings.Builder
			for _, name := range names {
				fmt.Fprintf(&b, "\t{%q, %q},\n", name, got[name])
			}
			t.Errorf("metrics=%v: schedule hashes diverged; recorded table for a deliberate change:\n%s", enabled, b.String())
		}
	}
}
